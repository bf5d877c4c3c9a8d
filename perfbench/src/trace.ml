(** In-memory span recorder for the traced run.

    A span is one timed call into a layer: name, start, end (seconds on
    {!Clock}), the span that caused it, and the id of the request it
    belongs to — shared by every span of that request.  Spans stay in
    memory until {!write} dumps them when the run ends, so recording costs
    two clock reads and one array slot. *)

type span = {
  name : string;
  start : float;
  mutable stop : float;
  parent : int;  (** index of the parent span, or -1 for a root *)
  req : int;  (** request id shared by the request's spans *)
}

type t = { mutable spans : span array; mutable n : int }

let dummy = { name = ""; start = 0.; stop = 0.; parent = -1; req = -1 }
let create () = { spans = Array.make 4096 dummy; n = 0 }
let get t i = t.spans.(i)

let add t ~name ~start ~stop ~parent ~req =
  if t.n = Array.length t.spans then begin
    let bigger = Array.make (2 * t.n) dummy in
    Array.blit t.spans 0 bigger 0 t.n;
    t.spans <- bigger
  end;
  t.spans.(t.n) <- { name; start; stop; parent; req };
  t.n <- t.n + 1;
  t.n - 1

(** [start t ~name ~parent ~req] opens a span now; close it with {!stop}.
    Children may be recorded while it is open. *)
let start t ~name ~parent ~req =
  let now = Clock.now () in
  add t ~name ~start:now ~stop:now ~parent ~req

let stop t i = t.spans.(i).stop <- Clock.now ()

(** Length of the union of [intervals], each clipped to [\[lo, hi\]]. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a lo and b = Float.min b hi in
        if b > a then Some (a, b) else None)
      intervals
    |> List.sort compare
  in
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | None -> (total, Some (a, b))
        | Some (ca, cb) ->
          if a <= cb then (total, Some (ca, Float.max cb b))
          else (total +. (cb -. ca), Some (a, b)))
      (0., None) clipped
  in
  match last with None -> total | Some (a, b) -> total +. (b -. a)

(** Self time of every span: its duration minus the part of its interval
    that its children cover.  Overlapping children count once, and a child
    that sticks out of its parent counts only inside it. *)
let self_times t =
  let children = Array.make t.n [] in
  for i = t.n - 1 downto 0 do
    let s = t.spans.(i) in
    if s.parent >= 0 && s.parent < t.n then
      children.(s.parent) <- (s.start, s.stop) :: children.(s.parent)
  done;
  Array.init t.n (fun i ->
      let s = t.spans.(i) in
      let d = s.stop -. s.start in
      d -. covered ~lo:s.start ~hi:s.stop children.(i))

(** Durations and self times grouped by span name. *)
let by_name t =
  let self = self_times t in
  let tbl = Hashtbl.create 16 in
  for i = 0 to t.n - 1 do
    let s = t.spans.(i) in
    let durs, selfs =
      Option.value (Hashtbl.find_opt tbl s.name) ~default:([], [])
    in
    Hashtbl.replace tbl s.name ((s.stop -. s.start) :: durs, self.(i) :: selfs)
  done;
  Hashtbl.fold
    (fun name (d, s) acc -> (name, Array.of_list d, Array.of_list s) :: acc)
    tbl []
  |> List.sort compare

(** Dump every span as tab-separated [index name start stop parent req]. *)
let write t path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc "# index\tname\tstart_s\tstop_s\tparent\treq\n";
      for i = 0 to t.n - 1 do
        let s = t.spans.(i) in
        Printf.fprintf oc "%d\t%s\t%.9f\t%.9f\t%d\t%d\n" i s.name s.start
          s.stop s.parent s.req
      done)

(** The wire leg: the workloads' request streams run over the two
    connections, with their latency samples and output checks. *)

type sample = {
  kind : Mix.kind;
  lat : float;
  traced : bool;
  at : float;  (** when it was due: the arrival order *)
}

(* Everything the timed phase observed. *)
type leg = {
  mutable samples : sample list;
  mutable lags : float list;
  mutable attempted : int;
  mutable failed : int;
  mutable completed : int;
  mutable elapsed : float;  (** from the first due time to the last completion *)
  mutable problems : string list;  (** failed output checks *)
  mutable errors : string list;  (** ERROR frames, refusals, timeouts *)
  mutable replay : Mix.op list;  (** traced run: every request sent, latest first *)
  mutable writes : int;  (** acknowledged writes, entangled ones included *)
  mutable user_bytes : int;  (** SQL text bytes of those writes *)
  mutable reads : int;
  mutable rows_returned : int;  (** rows in the results of those reads *)
  mutable coords : int;  (** pairs completed *)
}

let new_leg () =
  { samples = []; lags = []; attempted = 0; failed = 0; completed = 0;
    elapsed = 0.; problems = []; errors = []; replay = []; writes = 0;
    user_bytes = 0; reads = 0; rows_returned = 0; coords = 0 }

let problem leg fmt =
  Printf.ksprintf
    (fun s ->
      if List.length leg.problems < 20 then leg.problems <- s :: leg.problems)
    fmt

let error leg s =
  leg.failed <- leg.failed + 1;
  if List.length leg.errors < 20 then leg.errors <- s :: leg.errors

let cap = 256
let grace = 10.

(* One phase: a request stream run to completion on the two connections.
   With a trace, every other couple of requests (by the workload's index)
   is traced, so traced and untraced requests share the same stretch of
   the run and their difference is the tracing overhead alone.  Couples
   keep both halves of a pair together and span both connections. *)
type phase = {
  conns : Conn.t array;
  trace : Trace.t option;
  leg : leg;
}

let traced_tag tag = tag / 2 mod 2 = 0
let is_traced ph tag = ph.trace <> None && traced_tag tag

let new_sched ph =
  Sched.create
    ?trace:(Option.map (fun tr -> (tr, fun (r : Sched.req) -> traced_tag r.Sched.tag)) ph.trace)
    ~cap ph.conns

let on_sent ph (r : Sched.req) (op : Mix.op) =
  ph.leg.attempted <- ph.leg.attempted + 1;
  ph.leg.lags <- (r.Sched.sent -. r.Sched.due) :: ph.leg.lags;
  if ph.trace <> None then ph.leg.replay <- op :: ph.leg.replay

let sample ph kind ~tag ~due lat =
  ph.leg.samples <-
    { kind; lat; traced = is_traced ph tag; at = due } :: ph.leg.samples

let acked_write ph (op : Mix.op) =
  ph.leg.writes <- ph.leg.writes + 1;
  ph.leg.user_bytes <- ph.leg.user_bytes + String.length op.Mix.sql

(* Run a queued stream; completions are counted by the handler through
   [finish_at].  Returns when the last request completed. *)
let run_phase ph sched handler ~deadline =
  let t_start = Clock.now () in
  let last = ref t_start in
  let timed_out = Sched.run sched (handler (fun t -> last := Float.max !last t)) ~deadline in
  List.iter
    (fun (r : Sched.req) ->
      error ph.leg (Printf.sprintf "request %d timed out" r.Sched.id))
    timed_out;
  ph.leg.elapsed <- !last -. t_start

let answer_of (n : Core.Events.notification) =
  match n.Core.Events.answers with
  | [ (_, [| Relational.Value.Str name; Relational.Value.Int fno |]) ] ->
    Some (name, fno)
  | _ -> None

(* The generator's model of the data: the seeded tables, read once from a
   reference copy built in this process from the same seed, and kept up to
   date from acknowledged writes.  Expected read results come from these
   plain tables, not from the engine's indexes or planner. *)
type flight = { dest : string; day : int; mutable seats : int }

type model = {
  flights : (int, flight) Hashtbl.t;  (** seeded flights by number *)
  hotels : (int * string * int) list;  (** (hid, city, day) *)
  inflight_writes : (int, int) Hashtbl.t;  (** fno -> writes outstanding *)
  generation : (int, int) Hashtbl.t;  (** fno -> writes sent so far *)
  decrements : (int, int) Hashtbl.t;  (** fno -> acknowledged decrements *)
  inserted : (int, string) Hashtbl.t;  (** acknowledged inserts: fno -> dest *)
  check_rng : Random.State.t;
}

let new_model ~seed =
  let reference =
    Travel.Datagen.make_system ~seed:(Mix.dataset_seed seed)
      ~n_flights:Mix.n_flights ~n_hotels:Mix.n_hotels
      ~seats_per_flight:Mix.seats_per_flight ()
  in
  let db = Youtopia.System.database reference in
  let flights = Hashtbl.create 4096 in
  List.iter
    (function
      | Relational.Value.[| Int fno; Str dest; Int day; Int seats |] ->
        Hashtbl.replace flights fno { dest; day; seats }
      | _ -> Host.fail "unexpected Flights row")
    (Host.rows db "SELECT fno, dest, day, seats FROM Flights");
  let hotels =
    List.map
      (function
        | Relational.Value.[| Int hid; Str city; Int day |] -> (hid, city, day)
        | _ -> Host.fail "unexpected Hotels row")
      (Host.rows db "SELECT hid, city, day FROM Hotels")
  in
  {
    flights;
    hotels;
    inflight_writes = Hashtbl.create 64;
    generation = Hashtbl.create 64;
    decrements = Hashtbl.create 64;
    inserted = Hashtbl.create 65536;
    check_rng = Scenarios.Scengen.stream ~seed "perfbench.checks";
  }

let dest_of model fno =
  Option.map (fun f -> f.dest) (Hashtbl.find_opt model.flights fno)

(* pairs: a pair completes when both halves hold an answer — the half that
   closes the match in its result, the parked half in a PUSH.  Its latency
   runs from the time the completing (later) half was due to the later of
   the two answers. *)
let pairs_phase ph ~(ops : Mix.op array) ~model ~duration =
  let leg = ph.leg in
  let n = Array.length ops in
  let done_ = Array.make n Float.nan and fno = Array.make n (-1) in
  let reqs = Array.make n None in
  let by_user = Hashtbl.create n in
  Array.iteri (fun i (op : Mix.op) -> Hashtbl.replace by_user op.Mix.user i) ops;
  (* halves told [Registered] whose push has not arrived yet; a push can
     overtake its half's [Registered] result on the connection *)
  let registered = Array.make n false and awaiting = ref 0 in
  let sched = new_sched ph in
  let t0 = Clock.now () +. 0.001 in
  Array.iteri
    (fun i (op : Mix.op) ->
      Sched.enqueue sched
        (Sched.make_req sched ~conn:op.Mix.conn ~sql:op.Mix.sql
           ~due:(t0 +. op.Mix.due) ~tag:i))
    ops;
  let handler finish_at =
    (* the closing half may also be pushed its own answer: a repeat must
       agree with the first *)
    let answered i (nt : Core.Events.notification) t =
      match answer_of nt with
      | Some (name, f) when name = ops.(i).Mix.user ->
        if Float.is_nan done_.(i) then begin
          done_.(i) <- t;
          fno.(i) <- f;
          if registered.(i) then decr awaiting;
          leg.completed <- leg.completed + 1;
          acked_write ph ops.(i);
          finish_at t
        end
        else if fno.(i) <> f then
          problem leg "%s answered with flights %d and %d" name fno.(i) f
      | _ -> problem leg "malformed answer for %s" ops.(i).Mix.user
    in
    {
      Sched.on_send =
        (fun r ->
          reqs.(r.Sched.tag) <- Some r;
          on_sent ph r ops.(r.Sched.tag));
      on_reply =
        (fun r reply t ->
          match reply with
          | Sched.Body (Net.Wire.Answered nt) -> answered r.Sched.tag nt t
          | Sched.Body (Net.Wire.Registered _) ->
            registered.(r.Sched.tag) <- true;
            if Float.is_nan done_.(r.Sched.tag) then incr awaiting
          | Sched.Body _ ->
            problem leg "unexpected result for %s" ops.(r.Sched.tag).Mix.user
          | Sched.Err m -> error leg m);
      on_push =
        (fun _ nt t ->
          match answer_of nt with
          | Some (name, _) when Hashtbl.mem by_user name ->
            let i = Hashtbl.find by_user name in
            answered i nt t;
            reqs.(i)
          | _ ->
            problem leg "push that answers no request of this run";
            None);
      waiting = (fun () -> !awaiting > 0);
    }
  in
  run_phase ph sched handler ~deadline:(t0 +. duration +. grace);
  for p = 0 to (n / 2) - 1 do
    let a = 2 * p and b = (2 * p) + 1 in
    let op = ops.(a) in
    let due = t0 +. Float.max op.Mix.due ops.(b).Mix.due in
    List.iter
      (fun i ->
        if Float.is_nan done_.(i) && reqs.(i) <> None then begin
          error leg ("no answer for " ^ ops.(i).Mix.user);
          problem leg "pair %d: %s got no answer" p ops.(i).Mix.user
        end)
      [ a; b ];
    if not (Float.is_nan done_.(a) || Float.is_nan done_.(b)) then begin
      if fno.(a) <> fno.(b) then
        problem leg "pair %d answered with flights %d and %d" p fno.(a) fno.(b)
      else if dest_of model fno.(a) <> Some op.Mix.dest then
        problem leg "pair %d got flight %d, which does not fly to %s" p fno.(a)
          op.Mix.dest;
      leg.coords <- leg.coords + 1;
      sample ph Mix.Coord ~tag:a ~due (Float.max done_.(a) done_.(b) -. due)
    end
  done

let count tbl k = Option.value (Hashtbl.find_opt tbl k) ~default:0
let bump tbl k d = Hashtbl.replace tbl k (count tbl k + d)

(* the row count a result text ends with: "(N row(s))" *)
let result_rows text =
  match List.rev (String.split_on_char '\n' (String.trim text)) with
  | last :: _ -> (try Scanf.sscanf last "(%d row" Fun.id with _ -> 0)
  | [] -> 0

(* The rows of a result text: the lines between the column header and
   the "(N row(s))" footer, each "(v1, v2, …)". *)
let result_row_lines text =
  match String.split_on_char '\n' (String.trim text) with
  | _header :: rest -> List.filter (fun l -> l <> "") (List.rev (List.tl (List.rev rest)))
  | [] -> []

(* first column of each row, as an int *)
let first_ints text =
  List.sort compare
    (List.filter_map
       (fun l -> Scanf.sscanf_opt l "(%d" Fun.id)
       (result_row_lines text))

(* What a read must return according to the model: the exact row for a
   point read, the sorted first column otherwise. *)
let expected_read model (op : Mix.op) =
  match op.Mix.shape with
  | Mix.Point ->
    let f = Hashtbl.find model.flights op.Mix.fno in
    `Rows [ Printf.sprintf "(%d, '%s', %d, %d)" op.Mix.fno f.dest f.day f.seats ]
  | Mix.Range ->
    `Keys
      (Hashtbl.fold
         (fun fno f acc ->
           if f.dest = op.Mix.dest && f.day = op.Mix.day then fno :: acc else acc)
         model.flights []
      |> List.sort compare)
  | Mix.Join ->
    let f = Hashtbl.find model.flights op.Mix.fno in
    `Keys
      (List.filter_map
         (fun (hid, city, day) -> if city = f.dest && day = f.day then Some hid else None)
         model.hotels
      |> List.sort compare)
  | Mix.Insert -> `Rows []

let check_read leg model (op : Mix.op) text =
  let ok =
    match expected_read model op with
    | `Rows rows -> result_row_lines text = rows
    | `Keys keys -> first_ints text = keys
  in
  if not ok then problem leg "read %S returned %S, not what the model holds" op.Mix.sql text

(* mixed: every request completes on its own response; a seeded quarter of
   the reads is compared with the model.  A point read is checkable only
   when no write to its flight was outstanding when it went out and none
   was sent before it came back. *)
let mixed_phase ph ~(ops : Mix.op array) ~model ~duration =
  let leg = ph.leg in
  let sched = new_sched ph in
  let t0 = Clock.now () +. 0.001 in
  Array.iteri
    (fun i (op : Mix.op) ->
      Sched.enqueue sched
        (Sched.make_req sched ~conn:op.Mix.conn ~sql:op.Mix.sql
           ~due:(t0 +. op.Mix.due) ~tag:i))
    ops;
  let checks = Hashtbl.create 1024 in
  let handler finish_at =
    {
      Sched.on_send =
        (fun r ->
          let op = ops.(r.Sched.tag) in
          on_sent ph r op;
          match op.Mix.kind, op.Mix.shape with
          | Mix.Write, Mix.Point ->
            bump model.inflight_writes op.Mix.fno 1;
            bump model.generation op.Mix.fno 1
          | Mix.Read, _ when Random.State.int model.check_rng 4 = 0 ->
            if op.Mix.shape <> Mix.Point || count model.inflight_writes op.Mix.fno = 0
            then
              Hashtbl.replace checks r.Sched.id (count model.generation op.Mix.fno)
          | _ -> ());
      on_reply =
        (fun r reply t ->
          let op = ops.(r.Sched.tag) in
          match reply with
          | Sched.Err m -> error leg m
          | Sched.Body (Net.Wire.Sql_result text) ->
            leg.completed <- leg.completed + 1;
            finish_at t;
            sample ph op.Mix.kind ~tag:r.Sched.tag ~due:r.Sched.due (t -. r.Sched.due);
            (match op.Mix.kind, op.Mix.shape with
            | Mix.Write, Mix.Point ->
              bump model.inflight_writes op.Mix.fno (-1);
              let f = Hashtbl.find model.flights op.Mix.fno in
              f.seats <- f.seats - 1;
              acked_write ph op
            | Mix.Write, _ -> acked_write ph op
            | _ ->
              leg.reads <- leg.reads + 1;
              leg.rows_returned <- leg.rows_returned + result_rows text);
            (match Hashtbl.find_opt checks r.Sched.id with
            | Some gen
              when op.Mix.shape <> Mix.Point
                   || gen = count model.generation op.Mix.fno ->
              check_read leg model op text
            | _ -> ());
            Hashtbl.remove checks r.Sched.id
          | Sched.Body _ -> problem leg "unexpected result for %S" op.Mix.sql);
      on_push = (fun _ _ _ -> problem leg "unexpected push"; None);
      waiting = (fun () -> false);
    }
  in
  run_phase ph sched handler ~deadline:(t0 +. duration +. grace)

(* ingest: closed loop, [Mix.ingest_window] writes outstanding per
   connection; each acknowledgement sends the next write until [duration]
   has passed.  Latency runs from the send. *)
let ingest_phase ph ~gen ~next_index ~model ~duration =
  let leg = ph.leg in
  let sched = new_sched ph in
  let ops = Hashtbl.create 4096 in
  let t0 = Clock.now () in
  let stop_at = t0 +. duration in
  let next conn due =
    let i = !next_index in
    incr next_index;
    let op : Mix.op = gen i ~conn in
    Hashtbl.replace ops i op;
    Sched.enqueue sched (Sched.make_req sched ~conn ~sql:op.Mix.sql ~due ~tag:i)
  in
  Array.iteri
    (fun conn _ -> for _ = 1 to Mix.ingest_window do next conn t0 done)
    ph.conns;
  let handler finish_at =
    {
      Sched.on_send = (fun r -> on_sent ph r (Hashtbl.find ops r.Sched.tag));
      on_reply =
        (fun r reply t ->
          let op = Hashtbl.find ops r.Sched.tag in
          Hashtbl.remove ops r.Sched.tag;
          (match reply with
          | Sched.Err m -> error leg m
          | Sched.Body (Net.Wire.Sql_result _) ->
            leg.completed <- leg.completed + 1;
            finish_at t;
            sample ph Mix.Write ~tag:r.Sched.tag ~due:r.Sched.sent (t -. r.Sched.sent);
            acked_write ph op;
            (match op.Mix.shape with
            | Mix.Insert -> Hashtbl.replace model.inserted op.Mix.fno op.Mix.dest
            | Mix.Point -> bump model.decrements op.Mix.fno 1
            | _ -> ())
          | Sched.Body _ -> problem leg "unexpected result for %S" op.Mix.sql);
          if t < stop_at then next r.Sched.conn t);
      on_push = (fun _ _ _ -> problem leg "unexpected push"; None);
      waiting = (fun () -> false);
    }
  in
  run_phase ph sched handler ~deadline:(stop_at +. grace)

(* The recovered Flights table, as the host wrote it: fno -> (dest, seats). *)
let read_flights path =
  let recovered = Hashtbl.create 65536 in
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      try
        while true do
          match String.split_on_char '\t' (input_line ic) with
          | [ fno; dest; seats ] ->
            Hashtbl.replace recovered (int_of_string fno) (dest, int_of_string seats)
          | _ -> ()
        done
      with End_of_file -> ());
  recovered

(* After the run: the host reopens its WAL; the recovered tables must equal
   the live ones, every acknowledged insert must be there, and each seeded
   flight's seats must be the seeded count minus its acknowledged
   decrements. *)
let check_ingest leg host model =
  let line = Host.cmd host "CHECK" in
  let words = String.split_on_char ' ' line in
  let path =
    List.find_map
      (fun s ->
        if String.length s > 5 && String.sub s 0 5 = "path=" then
          Some (String.sub s 5 (String.length s - 5))
        else None)
      words
  in
  match path with
  | None -> problem leg "WAL recovery: %s" line
  | Some path ->
    if not (List.mem "same=true" words) then
      problem leg "recovered tables differ from the live ones (%s)" line;
    let recovered = read_flights path in
    Hashtbl.iter
      (fun fno dest ->
        match Hashtbl.find_opt recovered fno with
        | Some (d, _) when d = "'" ^ dest ^ "'" -> ()
        | _ ->
          problem leg "acknowledged insert of flight %d missing after recovery"
            fno)
      model.inserted;
    for fno = Mix.first_fno to Mix.first_fno + Mix.n_flights - 1 do
      let expected = Mix.seats_per_flight - count model.decrements fno in
      match Hashtbl.find_opt recovered fno with
      | Some (_, seats) when seats = expected -> ()
      | Some (_, seats) ->
        problem leg "flight %d has %d seats after recovery, expected %d" fno
          seats expected
      | None -> problem leg "seeded flight %d missing after recovery" fno
    done;
    let expected_rows = Mix.n_flights + Hashtbl.length model.inserted in
    if Hashtbl.length recovered <> expected_rows then
      problem leg "%d flights after recovery, expected %d"
        (Hashtbl.length recovered) expected_rows

(** [runner w ~seed model] — runs phases of workload [w]; each phase
    draws its requests from the seeded stream named by its label. *)
let runner w ~seed model =
  let rate = Mix.rate w in
  let ingest_gen = Mix.ingest_gen ~seed and next_index = ref 0 in
  fun ph ~label ~duration ->
    match w with
    | Mix.Pairs ->
      pairs_phase ph ~ops:(Mix.pairs_stream ~seed ~label ~rate ~duration) ~model
        ~duration
    | Mix.Mixed ->
      mixed_phase ph ~ops:(Mix.mixed_stream ~seed ~label ~rate ~duration) ~model
        ~duration
    | Mix.Ingest -> ingest_phase ph ~gen:ingest_gen ~next_index ~model ~duration

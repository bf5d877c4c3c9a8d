(** The load generator's event loop: one thread, [select] over the
    connections, requests sent when due and matched to responses by id.

    Open loop: every request is queued up front with the time it is {e due}
    and is sent at that time whatever the server is doing, so a stall
    delays the requests due during it and the latency of each request is
    measured from its due time, not from when it was sent.  A connection
    holds at most [cap] outstanding requests, as a middle tier's in-flight
    window would; while the window is full later requests wait and their
    lateness shows as generator lag ([sent - due]).  Closed loop: the
    handler enqueues the next request from its reply callback, with its
    due time set to now. *)

type req = {
  id : int;  (** wire request id *)
  conn : int;  (** index of the connection it goes out on *)
  sql : string;
  due : float;
  tag : int;  (** the workload's own index for the request *)
  mutable sent : float;
  mutable span : int;  (** [bench.request] span when tracing, else -1 *)
}

type reply = Body of Net.Wire.result_body | Err of string

type handler = {
  on_reply : req -> reply -> float -> unit;
      (** a response arrived for [req] at the given time *)
  on_push : int -> Core.Events.notification -> float -> req option;
      (** a coordination answer was pushed on connection [i]; return the
          request it answers, for the trace *)
  waiting : unit -> bool;
      (** something beyond the outstanding responses (e.g. a push) is
          still expected *)
  on_send : req -> unit;  (** [req] just went out ([req.sent] is set) *)
}

type t = {
  conns : Conn.t array;
  cap : int;
  queue : req Queue.t;
  outstanding : (int, req) Hashtbl.t;
  inflight : int array;
  trace : (Trace.t * (req -> bool)) option;
      (** the recorder, and which requests to trace *)
  mutable next_id : int;
}

let create ?trace ~cap conns =
  {
    conns;
    cap;
    queue = Queue.create ();
    outstanding = Hashtbl.create 1024;
    inflight = Array.make (Array.length conns) 0;
    trace;
    next_id = 1000;
  }

let make_req t ~conn ~sql ~due ~tag =
  let id = t.next_id in
  t.next_id <- id + 1;
  { id; conn; sql; due; tag; sent = Float.nan; span = -1 }

(** Queue a request; due times must not decrease along the queue. *)
let enqueue t r = Queue.push r t.queue

let send t handler r =
  let conn = t.conns.(r.conn) in
  let t0, t1 = Conn.send conn (Net.Wire.Submit { id = r.id; sql = r.sql }) in
  r.sent <- t0;
  (match t.trace with
  | Some (tr, traced) when traced r ->
    let root =
      Trace.add tr ~name:"bench.request" ~start:(Float.min r.due t0) ~stop:t1
        ~parent:(-1) ~req:r.id
    in
    r.span <- root;
    ignore
      (Trace.add tr ~name:"net.wire.encode" ~start:t0 ~stop:t1 ~parent:root
         ~req:r.id)
  | _ -> ());
  Hashtbl.replace t.outstanding r.id r;
  t.inflight.(r.conn) <- t.inflight.(r.conn) + 1;
  handler.on_send r

(* decodes are traced for traced requests only; a push is traced when it
   answers one *)
let trace_decode t (r : req option) t0 t1 =
  match t.trace, r with
  | Some (tr, _), Some r when r.span >= 0 ->
    ignore
      (Trace.add tr ~name:"net.wire.decode" ~start:t0 ~stop:t1 ~parent:r.span
         ~req:r.id)
  | _ -> ()

let complete t handler id reply t0 t1 =
  match Hashtbl.find_opt t.outstanding id with
  | None -> trace_decode t None t0 t1
  | Some r ->
    Hashtbl.remove t.outstanding id;
    t.inflight.(r.conn) <- t.inflight.(r.conn) - 1;
    (match t.trace with
    | Some (tr, _) when r.span >= 0 -> (Trace.get tr r.span).stop <- t1
    | _ -> ());
    trace_decode t (Some r) t0 t1;
    handler.on_reply r reply t1

let dispatch t handler i (resp, t0, t1) =
  match resp with
  | Net.Wire.Result { id; body } -> complete t handler id (Body body) t0 t1
  | Net.Wire.Error { id; message } -> complete t handler id (Err message) t0 t1
  | Net.Wire.Push n -> trace_decode t (handler.on_push i n t1) t0 t1
  | _ -> trace_decode t None t0 t1

let rec select fds timeout =
  try
    let r, _, _ = Unix.select fds [] [] timeout in
    r
  with Unix.Unix_error (Unix.EINTR, _, _) -> select fds timeout

(** Run until every queued request is answered and [handler.waiting] is
    false, or until [deadline] (seconds on {!Clock}).  Returns the requests
    still outstanding at the deadline: they timed out. *)
let run t handler ~deadline =
  let fds = Array.to_list (Array.map (fun (c : Conn.t) -> c.fd) t.conns) in
  let index fd =
    let rec go i = if t.conns.(i).Conn.fd = fd then i else go (i + 1) in
    go 0
  in
  let finished () =
    Queue.is_empty t.queue && Hashtbl.length t.outstanding = 0
    && not (handler.waiting ())
  in
  while (not (finished ())) && Clock.now () < deadline do
    let rec send_due () =
      match Queue.peek_opt t.queue with
      | Some r when r.due <= Clock.now () && t.inflight.(r.conn) < t.cap ->
        ignore (Queue.pop t.queue);
        send t handler r;
        send_due ()
      | _ -> ()
    in
    send_due ();
    let now = Clock.now () in
    let timeout =
      match Queue.peek_opt t.queue with
      | Some r when t.inflight.(r.conn) < t.cap -> Float.max 0. (r.due -. now)
      | _ -> 0.05
    in
    let timeout = Float.max 0. (Float.min timeout (deadline -. now)) in
    List.iter
      (fun fd ->
        let i = index fd in
        List.iter (dispatch t handler i) (Conn.read_available t.conns.(i)))
      (select fds timeout)
  done;
  Hashtbl.fold (fun _ r acc -> r :: acc) t.outstanding []
  |> List.sort (fun a b -> compare a.id b.id)

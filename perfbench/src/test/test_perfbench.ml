(* Tests of the benchmark's own arithmetic: the percentile rule, span self
   time, and open-loop due-time accounting against a stalling server. *)

open Perfbench

let floats = Alcotest.(float 1e-9)

(* ---- percentile rule ---- *)

let test_tail_rule () =
  Alcotest.(check (option int)) "999 samples: no p99" None (Pct.tail_nines 999);
  Alcotest.(check (option int)) "1000 samples: p99" (Some 2) (Pct.tail_nines 1000);
  Alcotest.(check (option int)) "9999 samples: p99" (Some 2) (Pct.tail_nines 9999);
  Alcotest.(check (option int)) "10000 samples: p99.9" (Some 3) (Pct.tail_nines 10000);
  Alcotest.(check (option int)) "10^6 samples: p99.999" (Some 5) (Pct.tail_nines 1_000_000)

let ramp n = Array.init n (fun i -> float_of_int (i + 1))

let test_summaries () =
  let s = Pct.summarize (ramp 999) in
  Alcotest.(check (option floats)) "no p99 below 1000" None s.Pct.p99;
  Alcotest.(check bool) "no tail below 1000" true (s.Pct.tail = None);
  Alcotest.check floats "median of 1..999" 500. s.Pct.p50;
  let s = Pct.summarize (ramp 1000) in
  (* nearest rank: 990 of 1000, so exactly ten samples lie beyond it *)
  Alcotest.(check (option floats)) "p99 of 1..1000" (Some 990.) s.Pct.p99;
  Alcotest.(check (option (pair string floats))) "tail is p99" (Some ("p99", 990.)) s.Pct.tail;
  let s = Pct.summarize (ramp 10000) in
  Alcotest.(check (option (pair string floats)))
    "tail is p99.9 with ten beyond" (Some ("p99.9", 9990.)) s.Pct.tail;
  Alcotest.check floats "even-length median" 2.5 (Pct.median [ 4.; 1.; 3.; 2. ])

(* ---- self time ---- *)

let test_self_time () =
  let tr = Trace.create () in
  let add name start stop parent =
    Trace.add tr ~name ~start ~stop ~parent ~req:7
  in
  let root = add "root" 0. 10. (-1) in
  let a = add "a" 1. 3. root in
  let _b = add "b" 2. 5. root in  (* overlaps a: [1,5] counts once *)
  let _c = add "c" 8. 12. root in  (* sticks out: only [8,10] counts *)
  let _g = add "g" 1.5 2.5 a in  (* grandchild: a's time, not root's *)
  let self = Trace.self_times tr in
  Alcotest.check floats "root self = 10 - 4 - 2" 4. self.(root);
  Alcotest.check floats "a self = 2 - 1" 1. self.(a);
  Alcotest.check floats "leaf self = duration" 3. self.(2);
  let by = Trace.by_name tr in
  Alcotest.(check (list string)) "names" [ "a"; "b"; "c"; "g"; "root" ]
    (List.map (fun (n, _, _) -> n) by)

let test_covered_disjoint () =
  Alcotest.check floats "disjoint children add" 3.
    (Trace.covered ~lo:0. ~hi:10. [ (1., 2.); (4., 6.) ]);
  Alcotest.check floats "child outside the parent" 0.
    (Trace.covered ~lo:0. ~hi:10. [ (11., 12.) ]);
  Alcotest.check floats "nested children" 5.
    (Trace.covered ~lo:0. ~hi:10. [ (1., 6.); (2., 3.) ])

(* ---- open-loop due-time accounting ---- *)

let stall_s = 0.2

(* A server that answers every SUBMIT in order, but sleeps [stall_s] before
   answering request [stall_id]; returns when it slept and woke. *)
let fake_server listener ~stall_id stall =
  let fd, _ = Unix.accept listener in
  let reply r = Net.Wire.write_frame fd (Net.Wire.encode_response r) in
  (try
     while true do
       match Net.Wire.decode_request (Net.Wire.read_frame fd) with
       | Net.Wire.Hello _ ->
         reply (Net.Wire.Welcome { version = Net.Wire.protocol_version; banner = "fake" })
       | Net.Wire.Submit { id; _ } ->
         if id = stall_id then begin
           let t0 = Clock.now () in
           Thread.delay stall_s;
           stall := Some (t0, Clock.now ())
         end;
         reply (Net.Wire.Result { id; body = Net.Wire.Sql_result "ok" })
       | _ -> ()
     done
   with Net.Wire.Closed | End_of_file | Unix.Unix_error _ -> ());
  Unix.close fd

let test_stall_shows () =
  let listener = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt listener Unix.SO_REUSEADDR true;
  Unix.bind listener (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen listener 1;
  let port =
    match Unix.getsockname listener with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> assert false
  in
  let n = 1000 and rate = 2000. in
  let stall = ref None in
  (* ids start at 1000; stall on the 200th request, due 0.1 s in *)
  let server = Thread.create (fun () -> fake_server listener ~stall_id:1200 stall) () in
  let conn = Conn.connect ~port ~user:"t" in
  let sched = Sched.create ~cap:4 [| conn |] in
  let t0 = Clock.now () +. 0.01 in
  let reqs =
    Array.init n (fun i ->
        let r =
          Sched.make_req sched ~conn:0 ~sql:"SELECT 1" ~due:(t0 +. (float_of_int i /. rate)) ~tag:i
        in
        Sched.enqueue sched r;
        r)
  in
  let latency = Array.make n Float.nan in
  let handler =
    { Sched.on_reply = (fun r _ t -> latency.(r.Sched.tag) <- t -. r.Sched.due);
      on_push = (fun _ _ _ -> None);
      waiting = (fun () -> false);
      on_send = (fun _ -> ()) }
  in
  let left = Sched.run sched handler ~deadline:(t0 +. 10.) in
  Conn.close conn;
  Thread.join server;
  Unix.close listener;
  Alcotest.(check int) "every request answered" 0 (List.length left);
  let s0, s1 = Option.get !stall in
  Alcotest.(check bool) "the stall happened" true (s1 -. s0 >= stall_s);
  (* a request due during the stall cannot finish before the stall ends:
     its latency, counted from its due time, covers the rest of the stall *)
  let during = ref 0 in
  Array.iteri
    (fun i (r : Sched.req) ->
      if r.Sched.due >= s0 && r.Sched.due < s1 then begin
        incr during;
        if latency.(i) < s1 -. r.Sched.due then
          Alcotest.failf "request %d due %.4fs into the stall has latency %.4fs"
            i (r.Sched.due -. s0) latency.(i)
      end)
    reqs;
  Alcotest.(check bool) "requests fell due during the stall" true (!during >= 300);
  (* with the window full, the generator sent them late: the lag shows *)
  let lags = Array.map (fun (r : Sched.req) -> r.Sched.sent -. r.Sched.due) reqs in
  let lag99 = Option.get (Pct.p99 (Pct.sort lags)) in
  Alcotest.(check bool)
    (Printf.sprintf "lag p99 %.3fs reflects the stall" lag99)
    true (lag99 >= stall_s /. 2.)

let () =
  Alcotest.run "perfbench"
    [
      ( "percentiles",
        [ Alcotest.test_case "tail rule" `Quick test_tail_rule;
          Alcotest.test_case "summaries" `Quick test_summaries ] );
      ( "trace",
        [ Alcotest.test_case "self time" `Quick test_self_time;
          Alcotest.test_case "covered" `Quick test_covered_disjoint ] );
      ( "open loop",
        [ Alcotest.test_case "stall shows in latency and lag" `Quick test_stall_shows ] );
    ]

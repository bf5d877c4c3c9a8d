(* perfbench: the repository benchmark.

     main.exe run --workload pairs|ingest|mixed --seed N --seconds S --trace 0|1
     main.exe host --workload W --seed N --dir D     (spawned by [run])

   [run] is the load generator.  It spawns the server host (this binary
   again, [host] mode) as a separate process, drives it over two loopback
   connections from one thread, checks the outputs, and prints the metrics;
   its last stdout line is the JSON result.  See perfbench/README.md. *)

open Perfbench

(* Set-up is repeated and its tenth percentile reported.  The set-ups come
   in two windows, one before the measured phase (its last host serves the
   run) and one after it; each window holds at least its count of set-ups
   and lasts at least [setup_window_s].  On a 2-vCPU VM the host's CPU
   speed flips between a fast and a slow mode about 1.5x apart, for
   seconds to minutes at a time, with no steal time showing in the guest.
   A run's median set-up then lands in either mode depending on how much of
   the run was slow: over two sets of ten runs it moved by a third, while
   the fast set-ups, the work itself, moved by under a tenth on the same
   workload.  More work in set-up slows every set-up, the fast ones too. *)
let setups_before = 5
let setups_after = 4
let setup_window_s = 5.0
let setup_quantile = 0.1
let warmup_s = 1.0

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let rec rm_rf p =
  match (Unix.lstat p).Unix.st_kind with
  | Unix.S_DIR ->
    Array.iter (fun e -> rm_rf (Filename.concat p e)) (Sys.readdir p);
    Unix.rmdir p
  | _ -> Sys.remove p
  | exception Unix.Unix_error _ -> ()

let ratio a b =
  match a, b with Some a, Some b when b > 0. -> a /. b | _ -> Float.nan

let us x = x *. 1e6
let summary samples = Pct.summarize (Array.of_list samples)
let p50 l = if l = [] then Float.nan else (summary l).Pct.p50
let p99 l = Option.value (summary l).Pct.p99 ~default:Float.nan

(* ---- measuring ---- *)

type setup = { setup_s : float; steps : (string * float) list }

(* Spawn a host and connect to it; [setup_s] runs from the spawn until both
   connections are ready for the first request. *)
let set_up w ~seed ~dir =
  mkdir_p dir;
  let t0 = Clock.now () in
  let h = Host.spawn w ~seed ~dir in
  let ready = Host.line h in
  if String.length ready < 6 || String.sub ready 0 6 <> "READY " then
    Host.fail "server host: %s" ready;
  let steps = Hoststats.of_line ready in
  let port =
    match List.assoc_opt "port" steps with
    | Some p -> int_of_float p
    | None -> Host.fail "no port in %S" ready
  in
  let conns =
    [| Conn.connect ~port ~user:"mt0"; Conn.connect ~port ~user:"mt1" |]
  in
  ({ setup_s = Clock.now () -. t0; steps }, h, conns)

(* A window of set-ups: at least [n] of them, lasting at least
   [setup_window_s].  Every host but the last is stopped; the last is
   returned connected. *)
let set_ups w ~seed ~run_dir ~tag ~n =
  let t0 = Clock.now () in
  let rec go k acc =
    let dir = Filename.concat run_dir (tag ^ string_of_int k) in
    let s, h, conns = set_up w ~seed ~dir in
    if k + 1 >= n && Clock.now () -. t0 >= setup_window_s then
      (List.rev (s :: acc), h, conns)
    else begin
      Array.iter Conn.close conns;
      Host.stop h;
      rm_rf dir;
      go (k + 1) (s :: acc)
    end
  in
  go 0 []

(* Everything a run observed, for the report. *)
type observed = {
  w : Mix.workload;
  leg : Leg.leg;
  setups : setup list;
  admin : string -> float option;  (** server counter delta over the run *)
  host_stats : (string * float) list;  (** host counter deltas *)
  io : Conn.io;
  wire_trace : Trace.t;
  engine : Engine.result option;
}

let measure w ~seed ~seconds ~traced ~run_dir =
  let model = Leg.new_model ~seed in
  let before, host, conns =
    set_ups w ~seed ~run_dir ~tag:"b" ~n:setups_before
  in
  let phase = Leg.runner w ~seed model in
  let warm = Leg.new_leg () and leg = Leg.new_leg () in
  phase { Leg.conns; trace = None; leg = warm } ~label:"w" ~duration:warmup_s;
  let admin0 = Conn.server_counters conns.(0) ~id:1 in
  ignore (Host.cmd host "MARK");
  let io0 = Conn.io conns in
  let wire_trace = Trace.create () in
  phase
    { Leg.conns; trace = (if traced then Some wire_trace else None); leg }
    ~label:"t" ~duration:seconds;
  let admin1 = Conn.server_counters conns.(0) ~id:2 in
  let host_stats = Hoststats.of_line (Host.cmd host "END") in
  let io = Conn.io_since io0 conns in
  if w = Mix.Ingest then Leg.check_ingest leg host model;
  Array.iter Conn.close conns;
  Host.stop host;
  let after, host, conns = set_ups w ~seed ~run_dir ~tag:"a" ~n:setups_after in
  Array.iter Conn.close conns;
  Host.stop host;
  List.iter (fun p -> Leg.problem leg "warm-up: %s" p) warm.Leg.problems;
  List.iter (fun e -> Leg.error leg ("warm-up: " ^ e)) warm.Leg.errors;
  let admin k =
    match List.assoc_opt k admin0, List.assoc_opt k admin1 with
    | Some x, Some y -> Some (y -. x)
    | _ -> None
  in
  let engine =
    if not traced then None
    else
      (* the server's mean write-batch size shapes the replay *)
      let batch = ratio (admin "batched_requests") (admin "batches") in
      let batch_size =
        if Float.is_finite batch then max 1 (int_of_float (Float.round batch))
        else 1
      in
      Some
        (Engine.replay w ~seed
           ~wal_path:(Filename.concat run_dir "engine.wal")
           ~batch_size (List.rev leg.Leg.replay))
  in
  {
    w;
    leg;
    setups = before @ after;
    admin;
    host_stats;
    io;
    wire_trace;
    engine;
  }

(* ---- metrics ---- *)

(* The operation each workload's end-to-end latency is about. *)
let main_kinds = function
  | Mix.Pairs -> [ Mix.Coord ]
  | Mix.Ingest -> [ Mix.Write ]
  | Mix.Mixed -> [ Mix.Read; Mix.Write ]

let latencies ?traced o kinds =
  List.filter_map
    (fun (s : Leg.sample) ->
      if List.mem s.Leg.kind kinds
         && Option.fold traced ~none:true ~some:(fun t -> s.Leg.traced = t)
      then Some s.Leg.lat
      else None)
    o.leg.Leg.samples

let kind_name = function
  | Mix.Coord -> "coordination"
  | Mix.Read -> "read"
  | Mix.Write -> "write"

(* one operation kind's latencies in arrival order, for {!Pct.chunked} *)
let in_arrival_order o kind =
  List.filter (fun (s : Leg.sample) -> s.Leg.kind = kind) o.leg.Leg.samples
  |> List.sort (fun (a : Leg.sample) b -> Float.compare a.Leg.at b.Leg.at)
  |> List.map (fun (s : Leg.sample) -> s.Leg.lat)
  |> Array.of_list

let completed o = float_of_int o.leg.Leg.completed

(* Quantile [q] of one kind's latency, as the median over chunks of the run
   (see {!Pct.chunked}), in µs, with a note saying so. *)
let chunked_kind o q kind =
  let ordered = in_arrival_order o kind in
  let v =
    match Pct.chunked q ordered with
    | Some v -> us v
    | None when q <= 0.5 && ordered <> [||] ->
      (* under one chunk a median still has samples enough *)
      us (Pct.quantile (Pct.sort ordered) q)
    | None -> Float.nan
  in
  let chunks = Array.length ordered / Pct.chunk in
  ( v,
    Printf.sprintf "%s %s" (kind_name kind)
      (if chunks = 0 then Printf.sprintf "whole run, %d samples" (Array.length ordered)
       else Printf.sprintf "median over %d chunks of %d" chunks Pct.chunk) )

(* Quantile [q] of the main operations' latency: the largest over their
   kinds, so that on [mixed] neither the reads nor the rarer writes can
   slow down unseen behind the other. *)
let chunked o q =
  List.map (chunked_kind o q) (main_kinds o.w)
  |> List.fold_left
       (fun (v, notes) (v', note) ->
         ((if Float.is_nan v || v' > v then v' else v), note :: notes))
       (Float.nan, [])
  |> fun (v, notes) -> (v, String.concat "; " (List.rev notes))

let setup_figure l = Pct.quantile (Pct.sort (Array.of_list l)) setup_quantile

(* Only the median latency is bounded: on a 2-vCPU VM the tails' run-to-run
   spread (a third to a half of their median for pairs and mixed) is wider
   than any bound the benchmark may set, so they are per-layer figures. *)
let end_to_end o =
  let p50, note = chunked o 0.5 in
  [
    Report.metric "ops_per_s" "ops/s" (completed o /. o.leg.Leg.elapsed);
    Report.metric "latency_p50_us" "us" p50 ~note;
    Report.metric "setup_s" "s"
      (setup_figure (List.map (fun s -> s.setup_s) o.setups))
      ~note:(Printf.sprintf "p10 of %d set-ups" (List.length o.setups));
    Report.metric "server_rss_mb" "MiB"
      (Option.value (List.assoc_opt "rss.hwm_mb" o.host_stats) ~default:Float.nan);
  ]

let per_layer o =
  let leg = o.leg in
  let host k = List.assoc_opt k o.host_stats in
  let host_ratio a b = ratio (host a) (host b) in
  let count n = Some (float_of_int n) in
  let per_op k = ratio (o.admin k) (Some (completed o)) in
  let writes = count leg.Leg.writes in
  let setup_step k =
    setup_figure
      (List.map
         (fun s -> Option.value (List.assoc_opt k s.steps) ~default:Float.nan)
         o.setups)
  in
  let engine f = match o.engine with Some e -> f e | None -> [] in
  let engine_p50 kind =
    p50 (engine (fun e -> List.filter_map (fun (k, l) -> if k = kind then Some l else None) e.Engine.latency))
  in
  (* wire-leg minus engine-leg median: transport, queues, locks, batching *)
  let overhead kind =
    us (p50 (latencies ~traced:true o [ kind ]) -. engine_p50 kind)
  in
  let main = main_kinds o.w in
  let untraced = p50 (latencies ~traced:false o main)
  and traced = p50 (latencies ~traced:true o main) in
  let m = Report.metric in
  let tail90, note90 = chunked o 0.9 and tail99, note99 = chunked o 0.99 in
  [
    m "tail.latency_p90_us" "us" tail90 ~note:note90;
    m "tail.latency_p99_us" "us" tail99 ~note:note99;
    m "bench.gen.lag_p99_us" "us" (us (p99 leg.Leg.lags));
    m "bench.trace.overhead_pct" "%" (100. *. (traced -. untraced) /. untraced)
      ~note:"traced minus untraced latency median, over untraced";
    m "bench.setup.dataset_s" "s" (setup_step "dataset_s");
    m "bench.setup.park_s" "s" (setup_step "park_s");
    m "bench.setup.first_poke_s" "s" (setup_step "first_poke_s");
    m "bench.setup.server_start_s" "s" (setup_step "server_start_s");
    m "net.wire.encode_ns" "ns"
      (Int64.to_float o.io.Conn.encode_ns /. float_of_int o.io.Conn.encodes);
    m "net.wire.decode_ns" "ns"
      (Int64.to_float o.io.Conn.decode_ns /. float_of_int o.io.Conn.decodes);
    m "net.wire.bytes_per_op" "bytes/op" (float_of_int o.io.Conn.bytes /. completed o);
    m "net.server.overhead_coord_p50_us" "us" (overhead Mix.Coord);
    m "net.server.overhead_write_p50_us" "us" (overhead Mix.Write);
    m "net.server.overhead_read_p50_us" "us" (overhead Mix.Read);
    m "net.server.batch_size_mean" "requests"
      (ratio (o.admin "batched_requests") (o.admin "batches"));
    m "net.server.batches_per_write" "ratio" (ratio (o.admin "batches") writes);
    m "net.server.engine_read_waits_per_op" "ratio" (per_op "engine_read_waits");
    m "net.server.engine_write_waits_per_op" "ratio" (per_op "engine_write_waits");
    m "net.server.pushes_per_coord" "ratio" (ratio (o.admin "pushes") (count leg.Leg.coords));
    m "net.server.loop_iterations_per_op" "ratio" (per_op "loop_iterations");
    m "net.server.loop_wakeups_per_op" "ratio" (per_op "loop_wakeups");
    m "sql.parser.parse_us_p50" "us" (us (p50 (engine (fun e -> e.Engine.parse))));
    m "system.exec.read_us_p50" "us" (us (p50 (engine (fun e -> e.Engine.exec_read))));
    m "system.exec.read_us_p99" "us" (us (p99 (engine (fun e -> e.Engine.exec_read))));
    m "system.exec.write_us_p50" "us" (us (p50 (engine (fun e -> e.Engine.exec_write))));
    m "relational.executor.rows_scanned_per_row" "ratio"
      (ratio (host "exec.rows_scanned") (count leg.Leg.rows_returned))
      ~note:"rows the server scanned per row its reads returned";
    m "relational.executor.index_lookups_per_read" "ratio"
      (ratio (host "exec.index_lookups") (count leg.Leg.reads));
    m "relational.wal.fsyncs_per_write" "ratio" (ratio (host "wal.fsyncs") writes);
    m "relational.wal.flushes_per_write" "ratio" (ratio (host "wal.flushes") writes);
    m "relational.wal.commits_per_group" "ratio" (host_ratio "wal.commits" "wal.flushes");
    m "relational.wal.bytes_per_write" "bytes/write" (ratio (host "wal.bytes") writes);
    m "relational.wal.bytes_per_user_byte" "ratio"
      (ratio (host "wal.bytes") (count leg.Leg.user_bytes))
      ~note:"WAL bytes per byte of acknowledged write SQL";
    m "core.translate.of_select_us_p50" "us" (us (p50 (engine (fun e -> e.Engine.translate))));
    m "core.coordinator.submit_us_p50" "us" (us (p50 (engine (fun e -> e.Engine.submit))));
    m "core.coordinator.submit_us_p99" "us" (us (p99 (engine (fun e -> e.Engine.submit))));
    m "core.matcher.search_steps_per_submit" "ratio"
      (host_ratio "coord.search_steps" "coord.submitted");
    m "core.matcher.unify_per_submit" "ratio"
      (host_ratio "coord.unify_attempts" "coord.submitted");
    m "core.matcher.budget_exhausted" "count"
      (Option.value (host "coord.budget_exhausted") ~default:Float.nan);
    m "core.ground.groundings_per_submit" "ratio"
      (host_ratio "coord.groundings" "coord.submitted");
    m "core.plan_cache.hit_ratio" "ratio"
      (ratio (host "coord.plan_cache_hits")
         (match host "coord.plan_cache_hits", host "coord.plan_cache_misses" with
         | Some h, Some m -> Some (h +. m)
         | _ -> None));
    m "core.coordinator.match_ratio" "ratio"
      (host_ratio "coord.groups_fulfilled" "coord.match_attempts");
    m "core.coordinator.poke_batch_us_p50" "us"
      (us (p50 (engine (fun e -> e.Engine.poke_batch))));
    m "core.coordinator.retries_per_poke" "ratio"
      (ratio (o.admin "coord_dirty_retries") (o.admin "coord_pokes"));
    m "core.pending.tuple_hit_ratio" "ratio"
      (ratio (o.admin "coord_tuple_hits") (o.admin "coord_tuple_probes"));
    m "core.pending.fallbacks_per_poke" "ratio"
      (ratio (o.admin "coord_tuple_fallbacks") (o.admin "coord_pokes"));
    m "core.pending.size" "queries"
      (Option.value (host "pending.size") ~default:Float.nan);
    m "runtime.gc.minor_words_per_op" "words/op"
      (ratio (host "gc.minor_words") (Some (completed o)));
    m "runtime.gc.major_collections_per_kop" "1/kop"
      (1000. *. ratio (host "gc.major_collections") (Some (completed o)));
  ]

(* ---- report ---- *)

let timing_line name l =
  let s = summary l in
  let tail =
    match s.Pct.tail with
    | Some (label, v) -> Printf.sprintf " %s=%.6g" label (us v)
    | None -> " (no tail percentile below 1000 samples)"
  in
  Printf.sprintf "  %-40s n=%d p50=%.6g%s us" name s.Pct.n (us s.Pct.p50) tail

let print_spans label tr =
  List.iter
    (fun (name, durs, selfs) ->
      let s = Pct.summarize durs and ss = Pct.summarize selfs in
      Printf.printf "  %s %-32s n=%d p50=%.1fus self_p50=%.1fus\n" label name
        s.Pct.n (us s.Pct.p50) (us ss.Pct.p50))
    (Trace.by_name tr)

let print_report o ~seed ~seconds ~traced ~e2e ~layers =
  let leg = o.leg in
  Printf.printf "perfbench workload=%s seed=%d seconds=%g trace=%d\n"
    (Mix.to_string o.w) seed seconds (if traced then 1 else 0);
  Printf.printf
    "  server: Net.Server.default_config with port=0 durability=%s (config \
     digest %s)\n"
    (Relational.Wal.durability_to_string (Mix.durability o.w))
    (Host.config_digest o.w);
  Printf.printf "  load: %s, 2 connections, 1 generator thread, %d parked\n"
    (match o.w with
    | Mix.Ingest ->
      Printf.sprintf "closed loop, %d writes outstanding per connection"
        Mix.ingest_window
    | Mix.Pairs -> Printf.sprintf "open loop, %g pairs/s" (Mix.rate o.w)
    | Mix.Mixed -> Printf.sprintf "open loop, %g requests/s" (Mix.rate o.w))
    (Mix.backlog o.w);
  print_endline (timing_line "coordination (due -> both answers)" (latencies o [ Mix.Coord ]));
  print_endline (timing_line "write" (latencies o [ Mix.Write ]));
  print_endline (timing_line "read" (latencies o [ Mix.Read ]));
  print_endline (timing_line "generator lag (sent - due)" leg.Leg.lags);
  List.iter
    (fun kind ->
      let ordered = in_arrival_order o kind in
      Printf.printf "  %s chunks p50/p99 (us):%s\n" (kind_name kind)
        (String.concat ""
           (List.map2
              (fun a b -> Printf.sprintf " %.0f/%.0f" (us a) (us b))
              (Pct.chunks 0.5 ordered) (Pct.chunks 0.99 ordered))))
    (main_kinds o.w);
  let setup_s = Array.of_list (List.map (fun s -> s.setup_s) o.setups) in
  Array.sort Float.compare setup_s;
  Printf.printf
    "  %d set-ups, s: min %.4f p10 %.4f p25 %.4f median %.4f p75 %.4f max %.4f\n"
    (Array.length setup_s) setup_s.(0) (Pct.quantile setup_s setup_quantile)
    (Pct.quantile setup_s 0.25)
    (Pct.quantile setup_s 0.5) (Pct.quantile setup_s 0.75)
    setup_s.(Array.length setup_s - 1);
  Printf.printf "  set-up step p10s, s:%s\n"
    (String.concat ""
       (List.map
          (fun (k, _) ->
            Printf.sprintf " %s=%.4g" k
              (setup_figure (List.filter_map (fun s -> List.assoc_opt k s.steps) o.setups)))
          (List.filter (fun (k, _) -> k <> "port") (List.hd o.setups).steps)));
  Printf.printf "  failed_ratio %.6g (%d of %d requests)\n"
    (float_of_int leg.Leg.failed /. float_of_int (max 1 leg.Leg.attempted))
    leg.Leg.failed leg.Leg.attempted;
  List.iter (Printf.printf "  error: %s\n") (List.rev leg.Leg.errors);
  List.iter (Printf.printf "  CHECK FAILED: %s\n") (List.rev leg.Leg.problems);
  print_endline "end-to-end:";
  List.iter (fun m -> print_endline (Report.human m)) e2e;
  if traced then begin
    print_endline "per-layer:";
    List.iter (fun m -> print_endline (Report.human m)) layers;
    print_endline "spans (duration and self time):";
    print_spans "wire  " o.wire_trace;
    Option.iter (fun e -> print_spans "engine" e.Engine.trace) o.engine
  end

let run w ~seed ~seconds ~traced =
  let run_dir =
    Printf.sprintf ".bench_run/%s-%d-%d" (Mix.to_string w) seed (Unix.getpid ())
  in
  let o = measure w ~seed ~seconds ~traced ~run_dir in
  rm_rf run_dir;
  let e2e = end_to_end o and layers = per_layer o in
  print_report o ~seed ~seconds ~traced ~e2e ~layers;
  if traced then begin
    let path leg = Printf.sprintf ".bench_run/trace-%s-%s.tsv" (Mix.to_string w) leg in
    Trace.write o.wire_trace (path "wire");
    Option.iter (fun e -> Trace.write e.Engine.trace (path "engine")) o.engine
  end;
  let correct =
    o.leg.Leg.problems = []
    && Option.fold o.engine ~none:true ~some:(fun e -> e.Engine.errors = 0)
  in
  print_endline
    (Report.result_line ~correct ~attempted:o.leg.Leg.attempted
       ~failed:o.leg.Leg.failed
       (if traced then layers else e2e));
  correct

(* ---- command line ---- *)

let usage () =
  prerr_endline
    "usage: main.exe run --workload pairs|ingest|mixed --seed N --seconds S \
     --trace 0|1\n\
    \       main.exe host --workload W --seed N --dir D";
  exit 2

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let rec opts acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
      opts ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let mode, rest = match args with m :: r -> (m, r) | [] -> usage () in
  let o = opts [] rest in
  let get k = match List.assoc_opt k o with Some v -> v | None -> usage () in
  let num conv k = match conv (get k) with Some v -> v | None -> usage () in
  let w =
    match Mix.of_string (get "workload") with Some w -> w | None -> usage ()
  in
  match mode with
  | "host" -> Host.serve w ~seed:(num int_of_string_opt "seed") ~dir:(get "dir")
  | "run" ->
    (* a host that died must surface as an error, not kill the generator *)
    Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
    at_exit Host.kill_all;
    let ok =
      try
        run w
          ~seed:(num int_of_string_opt "seed")
          ~seconds:(num float_of_string_opt "seconds")
          ~traced:(num int_of_string_opt "trace" = 1)
      with e ->
        Host.kill_all ();
        prerr_endline ("perfbench: " ^ Printexc.to_string e);
        exit 2
    in
    exit (if ok then 0 else 1)
  | _ -> usage ()

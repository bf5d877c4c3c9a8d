(** Counters the server host reads from its own process: GC, WAL io and
    bytes, executor work, coordinator counters and peak RSS.  A snapshot is
    a [(key, value)] list; keys that a later version of the engine stops
    providing simply go missing. *)

(** Peak resident set ([VmHWM]) of this process in MiB. *)
let vm_hwm_mb () =
  try
    let ic = open_in "/proc/self/status" in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let rec go () =
          match input_line ic with
          | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
            Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
          | _ -> go ()
        in
        go ())
  with End_of_file | Sys_error _ | Scanf.Scan_failure _ -> Float.nan

(** The coordinator's counters, read through their printed form
    (["search steps: 12"] becomes [coord.search_steps = 12.]). *)
let coord_counters stats =
  String.split_on_char '\n' (Core.Stats.to_string stats)
  |> List.filter_map (fun line ->
         match String.index_opt line ':' with
         | None -> None
         | Some i -> (
           let k =
             String.trim (String.sub line 0 i)
             |> String.map (fun c -> if c = ' ' then '_' else c)
           in
           let v = String.trim (String.sub line (i + 1) (String.length line - i - 1)) in
           match float_of_string_opt v with
           | Some f -> Some ("coord." ^ k, f)
           | None -> None))

(** Keys that are levels, not running totals: a delta keeps their latest
    value. *)
let gauges = [ "pending.size"; "rss.hwm_mb" ]

let snapshot sys ~wal_path =
  let gc = Gc.quick_stat () in
  let db = Youtopia.System.database sys in
  let ex = Relational.Executor.counters in
  let wal =
    match Relational.Database.wal_io db with
    | None -> []
    | Some io ->
      [
        ("wal.flushes", float_of_int io.Relational.Wal.flushes);
        ("wal.fsyncs", float_of_int io.Relational.Wal.fsyncs);
        ("wal.commits", float_of_int io.Relational.Wal.commits_logged);
      ]
  in
  let wal_bytes =
    try [ ("wal.bytes", float_of_int (Unix.stat wal_path).Unix.st_size) ]
    with Unix.Unix_error _ -> []
  in
  [
    ("gc.minor_words", gc.Gc.minor_words);
    ("gc.major_collections", float_of_int gc.Gc.major_collections);
    ("exec.rows_scanned", float_of_int ex.Relational.Executor.rows_scanned);
    ("exec.index_lookups", float_of_int ex.Relational.Executor.index_lookups);
    ( "pending.size",
      float_of_int
        (Core.Pending.size
           (Core.Coordinator.pending (Youtopia.System.coordinator sys))) );
    ("rss.hwm_mb", vm_hwm_mb ());
  ]
  @ wal @ wal_bytes
  @ coord_counters (Core.Coordinator.stats (Youtopia.System.coordinator sys))

let delta before after =
  List.map
    (fun (k, v) ->
      if List.mem k gauges then (k, v)
      else
        match List.assoc_opt k before with
        | Some v0 -> (k, v -. v0)
        | None -> (k, v))
    after

let to_line kvs =
  String.concat " " (List.map (fun (k, v) -> Printf.sprintf "%s=%.17g" k v) kvs)

let of_line line =
  String.split_on_char ' ' line
  |> List.filter_map (fun kv ->
         match String.index_opt kv '=' with
         | None -> None
         | Some i -> (
           match
             float_of_string_opt
               (String.sub kv (i + 1) (String.length kv - i - 1))
           with
           | Some f -> Some (String.sub kv 0 i, f)
           | None -> None))

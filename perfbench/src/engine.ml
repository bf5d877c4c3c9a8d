(** The engine leg of the traced run: the wire leg's request stream
    replayed in process against a fresh system built by the same set-up,
    with a span around each call into a layer.

    The replay keeps the server's batch shape: writes (entangled
    submissions included) are grouped [batch_size] at a time into one
    {!Relational.Database.with_wal_batch} scope that ends with one
    {!Core.Coordinator.poke_batch}, as the server's batching drainer does;
    reads run one by one.  The self time of a batch span is what the scope
    spends outside its statements and its poke: the WAL flush or fsync. *)

type result = {
  trace : Trace.t;
  parse : float list;
  translate : float list;
  submit : float list;
  exec_read : float list;
  exec_write : float list;
  poke_batch : float list;
  latency : (Mix.kind * float) list;
      (** engine time of each op: its own spans, plus for a write the
          poke and WAL tail of its batch.  A pair counts only its closing
          half, as the wire leg's coordination latency starts when that
          half is due. *)
  errors : int;
}

let replay w ~seed ~wal_path ~batch_size (ops : Mix.op list) =
  let sys, _ = Setup.build w ~seed ~wal_path in
  let db = Youtopia.System.database sys in
  let coord = Youtopia.System.coordinator sys in
  let sessions =
    [| Youtopia.System.session sys "mt0"; Youtopia.System.session sys "mt1" |]
  in
  let tr = Trace.create () in
  let parse = ref [] and translate = ref [] and submit = ref [] in
  let exec_read = ref [] and exec_write = ref [] and poke = ref [] in
  let latency = ref [] and errors = ref 0 in
  (* pairs whose opening half has been replayed *)
  let opened = Hashtbl.create 1024 in
  let timed acc name ~parent ~req f =
    let i = Trace.start tr ~name ~parent ~req in
    let r = f () in
    Trace.stop tr i;
    let s = Trace.get tr i in
    acc := (s.Trace.stop -. s.Trace.start) :: !acc;
    r
  in
  let exec_op ~parent req (op : Mix.op) =
    let session = sessions.(op.Mix.conn) in
    let root = Trace.start tr ~name:"engine.request" ~parent ~req in
    (match
       Relational.Errors.guard (fun () ->
           let stmts =
             timed parse "sql.parser.parse_script" ~parent:root ~req (fun () ->
                 Sql.Parser.parse_script op.Mix.sql)
           in
           List.iter
             (fun stmt ->
               match stmt with
               | Sql.Ast.Select s when Sql.Ast.is_entangled stmt ->
                 let q =
                   timed translate "core.translate.of_select" ~parent:root ~req
                     (fun () ->
                       Core.Translate.of_select
                         (Youtopia.System.catalog sys)
                         ~owner:(Youtopia.Session.user session)
                         ~label:(Sql.Pretty.select_to_string s) s)
                 in
                 ignore
                   (timed submit "core.coordinator.submit" ~parent:root ~req
                      (fun () -> Core.Coordinator.submit coord q))
               | _ ->
                 let acc =
                   if op.Mix.kind = Mix.Read then exec_read else exec_write
                 in
                 ignore
                   (timed acc "system.exec" ~parent:root ~req (fun () ->
                        Youtopia.System.exec sys session stmt)))
             stmts)
     with
    | Ok () -> ()
    | Error _ -> incr errors);
    Trace.stop tr root;
    let s = Trace.get tr root in
    ignore (Youtopia.Session.drain session);
    s.Trace.stop -. s.Trace.start
  in
  let record (op : Mix.op) own =
    match op.Mix.kind with
    | Mix.Coord ->
      if Hashtbl.mem opened op.Mix.pair then begin
        Hashtbl.remove opened op.Mix.pair;
        latency := (Mix.Coord, own) :: !latency
      end
      else Hashtbl.replace opened op.Mix.pair ()
    | k -> latency := (k, own) :: !latency
  in
  let group = ref [] and group_len = ref 0 in
  let flush () =
    if !group_len > 0 then begin
      let members = List.rev !group in
      group := [];
      group_len := 0;
      let b = Trace.start tr ~name:"engine.batch" ~parent:(-1) ~req:(-1) in
      let owns =
        Relational.Database.with_wal_batch db (fun () ->
            let owns =
              List.map (fun (i, op) -> (op, exec_op ~parent:b i op)) members
            in
            ignore
              (timed poke "core.coordinator.poke_batch" ~parent:b ~req:(-1)
                 (fun () ->
                   Core.Coordinator.poke_batch ~statements:(List.length owns)
                     coord));
            owns)
      in
      Trace.stop tr b;
      let bs = Trace.get tr b in
      let ran = List.fold_left (fun acc (_, own) -> acc +. own) 0. owns in
      (* the batch's wall time outside its statements: poke + WAL tail *)
      let tail = bs.Trace.stop -. bs.Trace.start -. ran in
      List.iter (fun (op, own) -> record op (own +. tail)) owns
    end
  in
  List.iteri
    (fun i (op : Mix.op) ->
      match op.Mix.kind with
      | Mix.Read -> record op (exec_op ~parent:(-1) i op)
      | Mix.Write | Mix.Coord ->
        group := (i, op) :: !group;
        incr group_len;
        if !group_len >= batch_size then flush ())
    ops;
  flush ();
  Relational.Database.close db;
  {
    trace = tr;
    parse = !parse;
    translate = !translate;
    submit = !submit;
    exec_read = !exec_read;
    exec_write = !exec_write;
    poke_batch = !poke;
    latency = !latency;
    errors = !errors;
  }

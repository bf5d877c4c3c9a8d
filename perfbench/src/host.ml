(** The server host: the process that owns the system and its server, and
    the generator's handle on it.  The two talk over the host's stdin and
    stdout, one line per command and per answer. *)

let fail fmt = Printf.ksprintf failwith fmt


let travel_tables =
  [ "Flights"; "Hotels"; "Seats"; "FlightBookings"; "HotelBookings";
    "FlightRes"; "HotelRes"; "SeatRes" ]

let rows db sql =
  match Sql.Run.exec_sql (Sql.Run.make_session db) sql with
  | Sql.Run.Rows (_, rows) -> rows
  | _ -> fail "%s: no rows" sql

(* Content fingerprint of every travel table: sorted row images, hashed. *)
let fingerprint db =
  List.map
    (fun name ->
      let lines =
        List.sort compare
          (List.map Relational.Tuple.to_string (rows db ("SELECT * FROM " ^ name)))
      in
      name ^ ":" ^ Digest.to_hex (Digest.string (String.concat "\n" lines)))
    travel_tables
  |> String.concat ","

let server_config w =
  { Net.Server.default_config with
    Net.Server.port = 0; durability = Some (Mix.durability w) }

let config_digest w =
  Digest.to_hex
    (Digest.string (Marshal.to_string (server_config w) [ Marshal.Closures ]))

(** The server host process: set up, serve, and answer the generator's
    commands on stdin ([MARK], [END], [CHECK], [STOP]) until [STOP] or EOF. *)
let serve w ~seed ~dir =
  let wal_path = Filename.concat dir "wal" in
  let sys, st = Setup.build w ~seed ~wal_path in
  let t0 = Clock.now () in
  let server = Net.Server.start ~config:(server_config w) sys in
  let server_start_s = Clock.now () -. t0 in
  Printf.printf
    "READY port=%d dataset_s=%.9f park_s=%.9f first_poke_s=%.9f \
     server_start_s=%.9f\n%!"
    (Net.Server.port server) st.Setup.dataset_s st.Setup.park_s
    st.Setup.first_poke_s server_start_s;
  let running = ref true in
  let stop () =
    if !running then begin
      running := false;
      Net.Server.stop server
    end
  in
  let mark = ref (Hoststats.snapshot sys ~wal_path) in
  (try
     while true do
       match input_line stdin with
       | "MARK" ->
         mark := Hoststats.snapshot sys ~wal_path;
         print_endline "OK"
       | "END" ->
         print_endline
           ("STATS "
           ^ Hoststats.to_line
               (Hoststats.delta !mark (Hoststats.snapshot sys ~wal_path)))
       | "CHECK" ->
         (* stop serving, close the log, and reopen it as a crash restart
            would: the recovered tables must equal the live ones *)
         stop ();
         let db = Youtopia.System.database sys in
         let live = fingerprint db in
         Relational.Database.close db;
         (match
            Relational.Database.recover ~durability:(Mix.durability w) wal_path
          with
         | exception e ->
           Printf.printf "CHECK recovery failed: %s\n%!" (Printexc.to_string e)
         | recovered_db ->
           let recovered = fingerprint recovered_db in
           let path = Filename.concat dir "flights.tsv" in
           let oc = open_out path in
           List.iter
             (fun t ->
               output_string oc
                 (String.concat "\t"
                    (Array.to_list (Array.map Relational.Value.to_string t)));
               output_char oc '\n')
             (rows recovered_db "SELECT fno, dest, seats FROM Flights");
           close_out oc;
           Relational.Database.close recovered_db;
           Printf.printf "CHECK same=%b path=%s\n%!" (live = recovered) path)
       | "STOP" -> raise Exit
       | _ -> ()
     done
   with End_of_file | Exit -> ());
  stop ()

(* ---- the host process, seen from the generator ---- *)

type proc = {
  pid : int;
  to_host : out_channel;
  from_host : in_channel;
  mutable alive : bool;
}

let live : proc list ref = ref []

(** Start a host for workload [w] writing under [dir]. *)
let spawn w ~seed ~dir =
  let in_r, in_w = Unix.pipe ~cloexec:true () in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let exe = Sys.executable_name in
  let pid =
    Unix.create_process exe
      [| exe; "host"; "--workload"; Mix.to_string w; "--seed";
         string_of_int seed; "--dir"; dir |]
      in_r out_w Unix.stderr
  in
  Unix.close in_r;
  Unix.close out_w;
  let h =
    { pid; to_host = Unix.out_channel_of_descr in_w;
      from_host = Unix.in_channel_of_descr out_r; alive = true }
  in
  live := h :: !live;
  h

(** The host's next stdout line. *)
let line h =
  match input_line h.from_host with
  | line -> line
  | exception End_of_file -> fail "server host exited unexpectedly"

(** Send one command and return the host's answer. *)
let cmd h cmd =
  output_string h.to_host (cmd ^ "\n");
  flush h.to_host;
  line h

let reap h =
  if h.alive then begin
    h.alive <- false;
    ignore (Unix.waitpid [] h.pid)
  end

let stop h =
  if h.alive then begin
    (try
       output_string h.to_host "STOP\n";
       flush h.to_host
     with Sys_error _ -> ());
    (try close_out h.to_host with Sys_error _ -> ());
    reap h;
    close_in_noerr h.from_host
  end

(** Kill every host still running (the generator's exit path). *)
let kill_all () =
  List.iter
    (fun h ->
      if h.alive then begin
        (try Unix.kill h.pid Sys.sigkill with Unix.Unix_error _ -> ());
        reap h
      end)
    !live

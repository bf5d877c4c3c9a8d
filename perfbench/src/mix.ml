(** The three workloads: their data sizes, durability, rates and seeded
    request streams (every stream comes from {!Scenarios.Scengen}, keyed
    by the run's seed and a label).

    - [pairs]: the paper's loaded system.  Open loop of travel pair
      requests ({!Travel.Workload.pair_sql}), one half per connection,
      against a standing backlog of parked pairs that never match.  The
      parser, translator, matcher, pending store and joint fulfilment do
      the work; the WAL logs one commit per match.
    - [ingest]: closed loop of writes, a window outstanding per
      connection: blind inserts, PK-pinned seat decrements and ranged
      price updates, with parked watchers on destinations the writes never
      touch.  Batching executor, WAL group commit and the poke's tuple
      probes do the work; the matcher does almost none.
    - [mixed]: open loop, 90% reads (PK lookup, dest+day index lookup, a
      small Flights-Hotels join) and 10% writes (seat decrement, booking
      insert) over Zipf-hot flights.  The executor and the shared read
      path do the work, and lone writes meet the batcher's hold window.

    All three fit in the engine's only cache, the 8192-entry grounding
    plan cache; none exceeds it, as no planned change targets that
    cache. *)

type workload = Pairs | Ingest | Mixed

let all = [ Pairs; Ingest; Mixed ]
let to_string = function Pairs -> "pairs" | Ingest -> "ingest" | Mixed -> "mixed"

let of_string s =
  List.find_opt (fun w -> to_string w = s) all

let n_flights = 2000
let n_hotels = 400
let seats_per_flight = 8
let first_fno = 100

(** Parked never-matching queries installed before the run. *)
let backlog = function Pairs -> 2000 | Ingest -> 2000 | Mixed -> 0

let durability = function
  | Pairs | Mixed -> Relational.Wal.Flush_per_commit
  | Ingest -> Relational.Wal.Fsync_per_commit

(** Offered load of the open-loop workloads: pairs/s on [pairs] (two
    requests each), requests/s on [mixed].  On a 2-vCPU VM [pairs] fell
    behind at 700 pairs/s and [mixed] held 6000 requests/s only with 5 ms
    medians.  [pairs] runs at about half of that; [mixed] at a quarter,
    because at half its median swung fivefold with the CPU the VM's host
    left it. *)
let rate = function Pairs -> 300. | Mixed -> 1500. | Ingest -> 0.

(** Outstanding writes per connection on [ingest]. *)
let ingest_window = 16

(** Destinations the [ingest] watchers wait for; no write touches them. *)
let watched_dests = [| "Lima"; "Quito"; "Cairo"; "Delhi" |]

let backlog_dests = function
  | Ingest -> watched_dests
  | Pairs | Mixed -> Travel.Datagen.cities

let dataset_seed seed = Scenarios.Scengen.derive ~seed "perfbench.dataset"

type kind = Coord | Read | Write

(** What an op touches: one row by primary key, a [dest] + [day] range,
    a join from one flight, or a new row. *)
type shape = Point | Range | Join | Insert

type op = {
  kind : kind;
  sql : string;
  conn : int;
  due : float;  (** seconds after the stream starts (0 on closed loops) *)
  fno : int;  (** flight the op reads or writes; -1 when none *)
  shape : shape;
  pair : int;  (** pair half: index of its pair; else -1 *)
  user : string;  (** pair half: its end user; else "" *)
  dest : string;  (** destination a pair half asks for, a range reads or an
                      insert writes; else "" *)
  day : int;  (** day a range reads; else 0 *)
}

let op ?(fno = -1) ?(shape = Point) ?(pair = -1) ?(user = "") ?(dest = "")
    ?(day = 0) kind sql ~conn ~due =
  { kind; sql; conn; due; fno; shape; pair; user; dest; day }

(* Constant-rate arrivals, as a paced load generator sends them: Poisson
   bursts would make the latency of a server this close to its capacity
   swing with the burst pattern of each seed rather than with the server. *)
let next_arrival ~rate t = t +. (1. /. rate)

let pick_city g =
  Travel.Datagen.cities.(Scenarios.Scengen.uniform g
                           (Array.length Travel.Datagen.cities))

(* Zipf-hot seeded flights; ranks are scattered over the flight numbers so
   hot flights are not all on one destination. *)
let hot_fno g =
  first_fno + (Scenarios.Scengen.user g * 7919 mod n_flights)

(** [pairs] stream: [duration] seconds of pair arrivals.  Pair [i] sends
    half ["<label>a<i>"] on connection 0 when it arrives and half ["<label>b<i>"] on
    connection 1 half an arrival gap later, so the first half has parked
    by the time its partner comes and the second half always closes the
    match; whether the two would land in one write batch is then no
    accident of timing. *)
let pairs_stream ~seed ~label ~rate ~duration =
  let g =
    Scenarios.Scengen.create ~seed ~label:("perfbench.pairs." ^ label) ~users:1 ()
  in
  let rec go i t acc =
    let t = next_arrival ~rate t in
    if t >= duration then Array.of_list (List.rev acc)
    else
      let dest = pick_city g in
      let a = Printf.sprintf "%sa%d" label i and b = Printf.sprintf "%sb%d" label i in
      let half user friend conn due =
        op Coord ~conn ~due ~user ~dest ~pair:i
          (Travel.Workload.pair_sql ~user ~friend ~dest)
      in
      go (i + 1) t (half b a 1 (t +. (0.5 /. rate)) :: half a b 0 t :: acc)
  in
  go 0 0. []

(** [mixed] stream: [duration] seconds of requests alternating over the
    two connections. *)
let mixed_stream ~seed ~label ~rate ~duration =
  let g =
    Scenarios.Scengen.create ~seed ~label:("perfbench.mixed." ^ label)
      ~users:n_flights ~skew:0.99 ()
  in
  let mix =
    [ (40, `Point); (35, `Range); (15, `Join); (5, `Decrement); (5, `Book) ]
  in
  let rec go i t acc =
    let t = next_arrival ~rate t in
    if t >= duration then Array.of_list (List.rev acc)
    else
      let conn = i mod 2 in
      let o =
        match Scenarios.Scengen.pick g mix with
        | `Point ->
          let fno = hot_fno g in
          op Read ~conn ~due:t ~fno ~shape:Point
            (Printf.sprintf
               "SELECT fno, dest, day, seats FROM Flights WHERE fno = %d" fno)
        | `Range ->
          let dest = pick_city g in
          let day = 1 + Scenarios.Scengen.uniform g 30 in
          op Read ~conn ~due:t ~shape:Range ~dest ~day
            (Printf.sprintf
               "SELECT fno, price FROM Flights WHERE dest = '%s' AND day = %d"
               dest day)
        | `Join ->
          let fno = hot_fno g in
          op Read ~conn ~due:t ~fno ~shape:Join
            (Printf.sprintf
               "SELECT h.hid, h.price FROM Flights f JOIN Hotels h ON h.city \
                = f.dest AND h.day = f.day WHERE f.fno = %d"
               fno)
        | `Decrement ->
          let fno = hot_fno g in
          op Write ~conn ~due:t ~fno
            (Printf.sprintf
               "UPDATE Flights SET seats = seats - 1 WHERE fno = %d" fno)
        | `Book ->
          let fno = hot_fno g in
          op Write ~conn ~due:t ~fno ~shape:Insert
            (Printf.sprintf "INSERT INTO FlightBookings VALUES ('u%d', %d)" i
               fno)
      in
      go (i + 1) t (o :: acc)
  in
  go 0 0. []

(** Fresh flight numbers for [ingest] inserts start here. *)
let ingest_fno_base = 1_000_000

(** [ingest] stream, drawn on demand by the closed loop: 70% blind
    inserts of new flights on 64 new routes, 25% PK-pinned seat decrements
    of seeded flights, 5% price updates over a seeded [dest] + [day]
    range. *)
let ingest_gen ~seed =
  let g =
    Scenarios.Scengen.create ~seed ~label:"perfbench.ingest" ~users:n_flights
      ~skew:0.99 ()
  in
  let mix = [ (70, `Insert); (25, `Decrement); (5, `Ranged) ] in
  fun i ~conn ->
    match Scenarios.Scengen.pick g mix with
    | `Insert ->
      (* new routes: the seeded destinations' index buckets, which the
         ranged updates scan, keep their size as the table grows *)
      let fno = ingest_fno_base + i in
      let dest = Printf.sprintf "New%d" (Scenarios.Scengen.uniform g 64) in
      let day = 1 + Scenarios.Scengen.uniform g 30 in
      let price = 100 + Scenarios.Scengen.uniform g 500 in
      op Write ~conn ~due:0. ~fno ~dest ~shape:Insert
        (Printf.sprintf "INSERT INTO Flights VALUES (%d, 'NYC', '%s', %d, %d.5, %d)"
           fno dest day price seats_per_flight)
    | `Decrement ->
      let fno = hot_fno g in
      op Write ~conn ~due:0. ~fno ~shape:Point
        (Printf.sprintf "UPDATE Flights SET seats = seats - 1 WHERE fno = %d"
           fno)
    | `Ranged ->
      let dest = pick_city g in
      let day = 1 + Scenarios.Scengen.uniform g 30 in
      op Write ~conn ~due:0. ~shape:Range
        (Printf.sprintf
           "UPDATE Flights SET price = price + 1 WHERE dest = '%s' AND day = %d"
           dest day)

(** Building a workload's system: the dataset, the parked backlog, and the
    first poke that drains the dirty state the dataset load left behind.
    Both the server host and the in-process engine replay use this, so the
    two legs of a traced run start from the same state. *)

type timings = { dataset_s : float; park_s : float; first_poke_s : float }

let build w ~seed ~wal_path =
  let t0 = Clock.now () in
  let sys =
    Travel.Datagen.make_system ~wal_path ~durability:(Mix.durability w)
      ~seed:(Mix.dataset_seed seed) ~n_flights:Mix.n_flights
      ~n_hotels:Mix.n_hotels ~seats_per_flight:Mix.seats_per_flight ()
  in
  let t1 = Clock.now () in
  let coord = Youtopia.System.coordinator sys in
  List.iter
    (fun q ->
      match Core.Coordinator.submit coord q with
      | Core.Coordinator.Registered _ -> ()
      | _ -> failwith "a backlog query did not park")
    (Travel.Workload.noise_queries (Youtopia.System.catalog sys)
       ~n:(Mix.backlog w) ~dests:(Mix.backlog_dests w));
  let t2 = Clock.now () in
  ignore (Youtopia.System.poke sys);
  let t3 = Clock.now () in
  (sys, { dataset_s = t1 -. t0; park_s = t2 -. t1; first_poke_s = t3 -. t2 })

(** Monotonic wall clock shared by every timing in the benchmark. *)

let now_ns () = Monotonic_clock.now ()

(** Seconds on the monotonic clock (arbitrary origin). *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

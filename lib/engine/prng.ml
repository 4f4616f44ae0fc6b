(* SplitMix64-style pseudo-random number generator on OCaml's native ints.

   Deterministic, seedable and cheap — used for scheduler decisions, workload
   key streams and property tests.  The state fits in one immediate int, so a
   generator can be embedded in a per-thread context without allocation. *)

type t = { mutable state : int }

let create seed = { state = (seed lxor 0x3ade68b1) lor 1 }

(* One SplitMix step adapted to 63-bit native ints.  The constants are the
   canonical 64-bit SplitMix constants truncated to OCaml's int width; the
   avalanche quality is more than enough for scheduling and workloads. *)
let next t =
  t.state <- (t.state + 0x1f123bb5159a55e5) land max_int;
  let z = t.state in
  let z = (z lxor (z lsr 30)) * 0x4f58af9e7a361d99 land max_int in
  let z = (z lxor (z lsr 27)) * 0x2545f4914f6cdd1d land max_int in
  z lxor (z lsr 31)

let int t bound =
  if bound <= 0 then invalid_arg "Prng.int: bound must be positive";
  next t mod bound

let bool t = next t land 1 = 1

let[@inline] float t =
  (* 53 random bits scaled into [0, 1). *)
  float_of_int (next t land ((1 lsl 53) - 1)) /. float_of_int (1 lsl 53)

let split t = create (next t)

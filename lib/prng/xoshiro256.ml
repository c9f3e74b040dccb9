(* The 256-bit state lives in a 32-byte buffer, one native-endian word
   per 8 bytes, read and written with 64-bit loads and stores. Mutable
   [int64] record fields would box a fresh word on every store, so each
   [next] would allocate four times and each [jump] over a thousand
   times; in the buffer the words stay unboxed and both are
   allocation-free apart from [next]'s result. *)
type t = Bytes.t

let[@inline] rotl x k =
  Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

let make s0 s1 s2 s3 =
  let t = Bytes.create 32 in
  Bytes.set_int64_ne t 0 s0;
  Bytes.set_int64_ne t 8 s1;
  Bytes.set_int64_ne t 16 s2;
  Bytes.set_int64_ne t 24 s3;
  t

let of_state (s0, s1, s2, s3) =
  if s0 = 0L && s1 = 0L && s2 = 0L && s3 = 0L then
    invalid_arg "Xoshiro256.of_state: all-zero state is forbidden"
  else make s0 s1 s2 s3

let of_seed seed =
  let sm = Splitmix64.create seed in
  let s0 = Splitmix64.next sm in
  let s1 = Splitmix64.next sm in
  let s2 = Splitmix64.next sm in
  let s3 = Splitmix64.next sm in
  (* SplitMix64 output of four words is zero with probability 2^-256;
     guard anyway so of_state's invariant holds unconditionally. *)
  if s0 = 0L && s1 = 0L && s2 = 0L && s3 = 0L then make 1L s1 s2 s3
  else make s0 s1 s2 s3

let next t =
  let s0 = Bytes.get_int64_ne t 0 in
  let s1 = Bytes.get_int64_ne t 8 in
  let s2 = Bytes.get_int64_ne t 16 in
  let s3 = Bytes.get_int64_ne t 24 in
  let result = Int64.mul (rotl (Int64.mul s1 5L) 7) 9L in
  let tmp = Int64.shift_left s1 17 in
  let s2 = Int64.logxor s2 s0 in
  let s3 = Int64.logxor s3 s1 in
  let s1 = Int64.logxor s1 s2 in
  let s0 = Int64.logxor s0 s3 in
  let s2 = Int64.logxor s2 tmp in
  let s3 = rotl s3 45 in
  Bytes.set_int64_ne t 0 s0;
  Bytes.set_int64_ne t 8 s1;
  Bytes.set_int64_ne t 16 s2;
  Bytes.set_int64_ne t 24 s3;
  result

(* Jump polynomial from the reference implementation: advances 2^128
   steps, equivalent to calling [next] that many times. *)
let jump_coeffs =
  [| 0x180EC6D33CFD0ABAL; 0xD5A61266F0C9392CL;
     0xA9582618E03FC9AAL; 0x39ABDC4529B1661CL |]

(* The 256 state transitions run on local words (the state update of
   [next], without its output), which the compiler keeps unboxed; only
   the final state is stored back. *)
let jump t =
  let s0 = ref (Bytes.get_int64_ne t 0) in
  let s1 = ref (Bytes.get_int64_ne t 8) in
  let s2 = ref (Bytes.get_int64_ne t 16) in
  let s3 = ref (Bytes.get_int64_ne t 24) in
  let j0 = ref 0L and j1 = ref 0L and j2 = ref 0L and j3 = ref 0L in
  for w = 0 to 3 do
    let coeff = jump_coeffs.(w) in
    for b = 0 to 63 do
      (* All ones when bit [b] of the polynomial is set: a branch on
         the bit would mispredict on half of the 256 steps. *)
      let mask =
        Int64.neg (Int64.logand (Int64.shift_right_logical coeff b) 1L)
      in
      j0 := Int64.logxor !j0 (Int64.logand !s0 mask);
      j1 := Int64.logxor !j1 (Int64.logand !s1 mask);
      j2 := Int64.logxor !j2 (Int64.logand !s2 mask);
      j3 := Int64.logxor !j3 (Int64.logand !s3 mask);
      let tmp = Int64.shift_left !s1 17 in
      s2 := Int64.logxor !s2 !s0;
      s3 := Int64.logxor !s3 !s1;
      s1 := Int64.logxor !s1 !s2;
      s0 := Int64.logxor !s0 !s3;
      s2 := Int64.logxor !s2 tmp;
      s3 := rotl !s3 45
    done
  done;
  Bytes.set_int64_ne t 0 !j0;
  Bytes.set_int64_ne t 8 !j1;
  Bytes.set_int64_ne t 16 !j2;
  Bytes.set_int64_ne t 24 !j3

let copy = Bytes.copy

let state t =
  ( Bytes.get_int64_ne t 0,
    Bytes.get_int64_ne t 8,
    Bytes.get_int64_ne t 16,
    Bytes.get_int64_ne t 24 )

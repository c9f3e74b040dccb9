(* FNV-1a, 64-bit: one multiply and one xor per byte, excellent
   dispersion for short ASCII records, and trivially portable — the
   journal needs tamper/tear detection, not cryptography. *)

let fnv_offset_basis = 0xCBF29CE484222325L
let fnv_prime = 0x100000001B3L

(* A [for] loop over a local accumulator keeps the hash unboxed; a
   closure over a captured [ref] would box it on every byte. *)
let string s =
  let h = ref fnv_offset_basis in
  for i = 0 to String.length s - 1 do
    h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code s.[i]))) fnv_prime
  done;
  !h

let hex_digits = "0123456789abcdef"

let to_hex x =
  let out = Bytes.create 16 in
  for i = 0 to 15 do
    let nibble = Int64.shift_right_logical x (60 - (4 * i)) in
    Bytes.set out i hex_digits.[Int64.to_int nibble land 15]
  done;
  Bytes.unsafe_to_string out

let hex_of_string s = to_hex (string s)

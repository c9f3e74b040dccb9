let magic = "rexspeed-journal v1"

(* ------------------------------------------------------------------ *)
(* Hex payload encoding: keeps the journal line-based text, so torn
   writes are detected by line structure + checksum, and the file can
   be inspected with standard tools. *)

let hex_digits = "0123456789abcdef"

let hex_encode s =
  let n = String.length s in
  let out = Bytes.create (2 * n) in
  for i = 0 to n - 1 do
    let c = Char.code s.[i] in
    Bytes.set out (2 * i) hex_digits.[c lsr 4];
    Bytes.set out ((2 * i) + 1) hex_digits.[c land 15]
  done;
  Bytes.unsafe_to_string out

(* Digit value, or -1 for a character that is not a hex digit. *)
let hex_value c =
  match c with
  | '0' .. '9' -> Char.code c - Char.code '0'
  | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
  | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
  | _ -> -1

let hex_decode s =
  let n = String.length s in
  if n mod 2 <> 0 then None
  else
    let out = Bytes.create (n / 2) in
    let rec go i =
      if i >= n / 2 then Some (Bytes.unsafe_to_string out)
      else
        let hi = hex_value s.[2 * i] and lo = hex_value s.[(2 * i) + 1] in
        if hi < 0 || lo < 0 then None
        else begin
          Bytes.set out i (Char.chr ((hi * 16) + lo));
          go (i + 1)
        end
    in
    go 0

(* ------------------------------------------------------------------ *)
(* Writer                                                              *)

type writer = { oc : Out_channel.t; sync : bool }

let checksummed_line body = body ^ " " ^ Checksum.hex_of_string body ^ "\n"

(* [Out_channel.flush] survives a killed process (the data is in the
   kernel page cache) but not power loss or a kernel panic; [fsync]
   covers those too. Durability points route through here so the two
   levels of guarantee live in one place. *)
let flush w =
  Out_channel.flush w.oc;
  if w.sync then Unix.fsync (Unix.descr_of_out_channel w.oc)

let create ?(sync = true) ~path ~description () =
  match Out_channel.open_text path with
  | exception Sys_error message -> Error message
  | oc ->
      let w = { oc; sync } in
      Out_channel.output_string oc (magic ^ "\n");
      Out_channel.output_string oc
        (checksummed_line ("H " ^ hex_encode description));
      (* The header must survive an immediate crash: flush (and, when
         durable, fsync) before any work runs so a resumed run can
         always verify it. *)
      flush w;
      Ok w

let reopen ?(sync = true) ~path ~valid_bytes () =
  (* Drop any torn/corrupted tail first, so new records append after
     the last verified one rather than after garbage. *)
  match
    Unix.truncate path valid_bytes;
    Out_channel.open_gen [ Open_wronly; Open_append ] 0o644 path
  with
  | exception Sys_error message -> Error message
  | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
  | oc -> Ok { oc; sync }

let append w ~index ~payload =
  Out_channel.output_string w.oc
    (checksummed_line ("R " ^ string_of_int index ^ " " ^ hex_encode payload))

let close w = Out_channel.close w.oc

(* ------------------------------------------------------------------ *)
(* Reader                                                              *)

type recovered = {
  payloads : string option array;
  entries : int;
  dropped : bool;
  valid_bytes : int;
}

(* The next newline-terminated line at [pos]; a trailing segment with
   no ['\n'] is a torn write and is never returned as a line. *)
let next_line contents pos =
  if pos >= String.length contents then None
  else
    match String.index_from_opt contents pos '\n' with
    | None -> None
    | Some stop -> Some (String.sub contents pos (stop - pos), stop + 1)

let verify_line line =
  (* "<body> <crc>": split at the last space, recompute the crc. *)
  match String.rindex_opt line ' ' with
  | None -> None
  | Some i ->
      let body = String.sub line 0 i in
      let crc = String.sub line (i + 1) (String.length line - i - 1) in
      if String.equal crc (Checksum.hex_of_string body) then Some body
      else None

let parse_record body ~slots =
  match String.split_on_char ' ' body with
  | [ "R"; index; hex ] -> begin
      match int_of_string_opt index with
      | Some i when i >= 0 && i < slots -> begin
          match hex_decode hex with
          | Some payload -> Some (i, payload)
          | None -> None
        end
      | Some _ | None -> None
    end
  | _ -> None

let read ~path ~description ~slots =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error message -> Error message
  | contents -> begin
      match next_line contents 0 with
      | Some (line, pos) when String.equal line magic -> begin
          match next_line contents pos with
          | None -> Error (path ^ ": journal header is torn")
          | Some (line, pos) -> begin
              match verify_line line with
              | None -> Error (path ^ ": journal header fails its checksum")
              | Some body ->
                  let found =
                    if String.length body >= 2 && String.sub body 0 2 = "H "
                    then
                      hex_decode
                        (String.sub body 2 (String.length body - 2))
                    else None
                  in
                  (match found with
                  | None -> Error (path ^ ": malformed journal header")
                  | Some found when not (String.equal found description) ->
                      Error
                        (Printf.sprintf
                           "%s: journal fingerprint mismatch\n\
                           \  journal was written by: %s\n\
                           \  this run is:            %s"
                           path found description)
                  | Some _ ->
                      (* Header verified: recover records until the
                         first torn or corrupted one — everything
                         before it is checksummed, everything after it
                         is untrusted. *)
                      let payloads = Array.make slots None in
                      let entries = ref 0 in
                      let rec records pos =
                        match next_line contents pos with
                        | None -> pos
                        | Some (line, next) -> begin
                            match
                              Option.bind (verify_line line)
                                (parse_record ~slots)
                            with
                            | None -> pos
                            | Some (i, payload) ->
                                if payloads.(i) = None then incr entries;
                                payloads.(i) <- Some payload;
                                records next
                          end
                      in
                      let valid_bytes = records pos in
                      Ok
                        {
                          payloads;
                          entries = !entries;
                          dropped = valid_bytes < String.length contents;
                          valid_bytes;
                        })
            end
        end
      | Some _ | None ->
          Error (path ^ ": not a rexspeed journal (bad magic line)")
    end

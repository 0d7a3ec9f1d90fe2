(* Reflected CRC-32 with the IEEE 802.3 polynomial. The table holds the
   CRC of each possible byte fed into an all-zero register; one lookup per
   input byte then folds the running register. The register is a native
   int (63 bits wide, the CRC in its low 32), so the loop boxes nothing. *)

let table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref n in
         for _ = 0 to 7 do
           c := if !c land 1 <> 0 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
         done;
         !c))

let bytes ?(off = 0) ?len b =
  let len = match len with Some l -> l | None -> Bytes.length b - off in
  if off < 0 || len < 0 || off + len > Bytes.length b then
    invalid_arg "Crc32.bytes";
  let table = Lazy.force table in
  let crc = ref 0xFFFFFFFF in
  for i = off to off + len - 1 do
    crc :=
      Array.unsafe_get table
        ((!crc lxor Char.code (Bytes.unsafe_get b i)) land 0xFF)
      lxor (!crc lsr 8)
  done;
  Int32.of_int (!crc lxor 0xFFFFFFFF)

let string ?off ?len s = bytes ?off ?len (Bytes.unsafe_of_string s)

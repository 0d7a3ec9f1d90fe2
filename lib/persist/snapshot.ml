module Failpoint = Xsact_util.Failpoint

let magic = "XSCTSNP1"
let trailer_magic = "XSCTEND1"
let header_bytes = String.length magic
let trailer_bytes = String.length trailer_magic + 8

let fsync_path path =
  match Unix.openfile path [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> ()
  | fd ->
    Fun.protect
      ~finally:(fun () -> Unix.close fd)
      (fun () -> try Unix.fsync fd with Unix.Unix_error _ -> ())

let write ?(fsync = true) path records =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf magic;
  List.iter (Journal.add_record buf) records;
  (* Trailer: record count + CRC over everything before the trailer, then
     the end marker. A write that dies anywhere leaves either no file (we
     write a tmp) or — if the tmp itself is later mistaken for the real
     file — a body whose CRC cannot match. *)
  let body = Buffer.contents buf in
  let trailer = Bytes.create 8 in
  Bytes.set_int32_le trailer 0 (Int32.of_int (List.length records));
  Bytes.set_int32_le trailer 4 (Crc32.string body);
  let tmp = path ^ ".tmp" in
  let fd =
    Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  (match
     let write_all b off len =
       let rec go off len =
         if len > 0 then begin
           let n = Unix.write fd b off len in
           go (off + n) (len - n)
         end
       in
       go off len
     in
     let body = Bytes.unsafe_of_string body in
     write_all body 0 (Bytes.length body);
     Failpoint.hit "persist.ctxsnap.tear";
     write_all trailer 0 8;
     let tm = Bytes.of_string trailer_magic in
     write_all tm 0 (Bytes.length tm);
     if fsync then Unix.fsync fd
   with
  | () -> Unix.close fd
  | exception e ->
    (try Unix.close fd with Unix.Unix_error _ -> ());
    (try Unix.unlink tmp with Unix.Unix_error _ -> ());
    raise e);
  Failpoint.hit "persist.ctxsnap.rename";
  Unix.rename tmp path;
  if fsync then fsync_path (Filename.dirname path)

type read_result = { records : string list; valid : bool }

let invalid = { records = []; valid = false }

let read path =
  match open_in_bin path with
  | exception Sys_error _ -> invalid
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let len = in_channel_length ic in
        if len < header_bytes + trailer_bytes then invalid
        else
          let data = really_input_string ic len in
          let tpos = len - trailer_bytes in
          if
            String.sub data 0 header_bytes <> magic
            || String.sub data (tpos + 8) (String.length trailer_magic)
               <> trailer_magic
            || Crc32.string ~off:0 ~len:tpos data
               <> String.get_int32_le data (tpos + 4)
          then invalid
          else begin
            (* CRC over the whole body already vouches for every record,
               but re-walk the framing so a count mismatch (or an inner
               framing bug) is caught rather than trusted. The cap is the
               largest payload [write] accepts. *)
            let count = Int32.to_int (String.get_int32_le data tpos) in
            let rec walk acc n =
              let pos = pos_in ic in
              if pos >= tpos then
                if pos = tpos && n = count then
                  { records = List.rev acc; valid = true }
                else invalid
              else
                match
                  Journal.input_frame ~max_record_bytes:Journal.max_payload_bytes
                    ic
                with
                | Journal.Record p -> walk (p :: acc) (n + 1)
                | Journal.End | Journal.Cut | Journal.Torn -> invalid
            in
            seek_in ic header_bytes;
            walk [] 0
          end)

(** One pipelined client connection speaking the public {!Net.Wire} codec.

    Requests carry ids; responses are matched by id, so many requests can
    be outstanding on one socket.  The socket stays blocking for writes
    (frames are small) and is read only when [select] says it is readable,
    so a read never blocks. *)

type t = {
  fd : Unix.file_descr;
  dec : Net.Wire.Decoder.t;
  buf : Bytes.t;
  mutable bytes_out : int;
  mutable bytes_in : int;
  mutable encode_ns : int64;  (** time spent encoding requests *)
  mutable decode_ns : int64;  (** time spent decoding responses *)
  mutable encodes : int;
  mutable decodes : int;
}

let write_all fd b =
  let len = Bytes.length b in
  let rec go off =
    if off < len then go (off + Unix.write fd b off (len - off))
  in
  go 0

let frame_of_request req = Net.Wire.frame_bytes (Net.Wire.encode_request req)

(** Encode and send one request; returns when encoding started and ended
    (seconds on {!Clock}). *)
let send t req =
  let t0 = Clock.now_ns () in
  let frame = frame_of_request req in
  let t1 = Clock.now_ns () in
  t.encode_ns <- Int64.add t.encode_ns (Int64.sub t1 t0);
  t.encodes <- t.encodes + 1;
  write_all t.fd frame;
  t.bytes_out <- t.bytes_out + Bytes.length frame;
  (Int64.to_float t0 *. 1e-9, Int64.to_float t1 *. 1e-9)

(** Read whatever the socket holds (call only when it is readable) and
    return the complete responses, each with when its decoding started
    and ended (seconds on {!Clock}).
    Raises [End_of_file] when the server closed the connection. *)
let read_available t =
  let n = Unix.read t.fd t.buf 0 (Bytes.length t.buf) in
  if n = 0 then raise End_of_file;
  t.bytes_in <- t.bytes_in + n;
  Net.Wire.Decoder.feed t.dec t.buf 0 n;
  let rec frames acc =
    match Net.Wire.Decoder.next t.dec with
    | None -> List.rev acc
    | Some frame ->
      let t0 = Clock.now_ns () in
      let resp = Net.Wire.decode_response_kind frame in
      let t1 = Clock.now_ns () in
      t.decode_ns <- Int64.add t.decode_ns (Int64.sub t1 t0);
      t.decodes <- t.decodes + 1;
      frames ((resp, Int64.to_float t0 *. 1e-9, Int64.to_float t1 *. 1e-9) :: acc)
  in
  frames []

(** Blocking read of the next response (handshake and admin probes,
    outside the timed window). *)
let rec recv t =
  match Net.Wire.Decoder.next t.dec with
  | Some frame -> Net.Wire.decode_response_kind frame
  | None ->
    let n = Unix.read t.fd t.buf 0 (Bytes.length t.buf) in
    if n = 0 then raise End_of_file;
    Net.Wire.Decoder.feed t.dec t.buf 0 n;
    recv t

let connect ~port ~user =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
     Unix.setsockopt fd Unix.TCP_NODELAY true
   with e ->
     Unix.close fd;
     raise e);
  let t =
    {
      fd;
      dec = Net.Wire.Decoder.create ();
      buf = Bytes.create 65536;
      bytes_out = 0;
      bytes_in = 0;
      encode_ns = 0L;
      decode_ns = 0L;
      encodes = 0;
      decodes = 0;
    }
  in
  ignore
    (send t (Net.Wire.Hello { version = Net.Wire.protocol_version; user }));
  (match recv t with
  | Net.Wire.Welcome _ -> ()
  | _ -> failwith "handshake: expected WELCOME");
  t

let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()

(** Wire work summed over connections. *)
type io = {
  bytes : int;  (** sent and received *)
  encode_ns : int64;
  encodes : int;
  decode_ns : int64;
  decodes : int;
}

let io conns =
  Array.fold_left
    (fun a c ->
      {
        bytes = a.bytes + c.bytes_out + c.bytes_in;
        encode_ns = Int64.add a.encode_ns c.encode_ns;
        encodes = a.encodes + c.encodes;
        decode_ns = Int64.add a.decode_ns c.decode_ns;
        decodes = a.decodes + c.decodes;
      })
    { bytes = 0; encode_ns = 0L; encodes = 0; decode_ns = 0L; decodes = 0 }
    conns

(** The wire work done on [conns] since the snapshot [before]. *)
let io_since before conns =
  let a = io conns in
  {
    bytes = a.bytes - before.bytes;
    encode_ns = Int64.sub a.encode_ns before.encode_ns;
    encodes = a.encodes - before.encodes;
    decode_ns = Int64.sub a.decode_ns before.decode_ns;
    decodes = a.decodes - before.decodes;
  }

(** One synchronous request outside the timed window: send, then skip
    pushes until the response with [id] arrives. *)
let call t req ~id =
  ignore (send t req);
  let rec wait () =
    match recv t with
    | Net.Wire.Result { id = i; body } when i = id -> Ok body
    | Net.Wire.Stats { id = i; body } when i = id -> Ok (Net.Wire.Listing body)
    | Net.Wire.Error { id = i; message } when i = id -> Error message
    | _ -> wait ()
  in
  wait ()

(** [ADMIN|id|server] as [key -> value] pairs; non-numeric values are
    dropped, so a key the server stops reporting just goes missing. *)
let server_counters t ~id =
  match call t (Net.Wire.Admin { id; what = "server" }) ~id with
  | Ok (Net.Wire.Listing body) ->
    String.split_on_char '\n' body
    |> List.filter_map (fun line ->
           match String.index_opt line '=' with
           | None -> None
           | Some i -> (
             let k = String.sub line 0 i in
             let v = String.sub line (i + 1) (String.length line - i - 1) in
             match float_of_string_opt v with
             | Some f -> Some (k, f)
             | None -> None))
  | Ok _ -> []
  | Error m -> failwith ("ADMIN server: " ^ m)

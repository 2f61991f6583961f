(** HTTP/1.1 codec for the serve plane.

    One incremental parser per direction, both running on one internal
    buffer-and-head scanner:

    - {!Parser} reads requests.  The daemon's event loop feeds it
      whatever [read(2)] returned; several pipelined requests can come
      out of one chunk, and one request can arrive split across any
      number of chunks.
    - {!Rparser} reads responses, for the load generator's pipelined
      connections and for the tests' blocking client.

    Neither parser sees the socket, so neither sees EOF: a message cut
    short stays [`Await] with its bytes buffered, and deciding that the
    peer is gone is the caller's job.

    Supported surface: [GET]/[HEAD]/[POST] with [Content-Length] bodies
    and keep-alive ({!wants_keep_alive} implements the HTTP/1.1 /
    HTTP/1.0 defaulting rules).  Hard caps on line length, header count
    and body size bound what a hostile peer can make the daemon buffer.
    Chunked transfer encoding is deliberately rejected — a simulation
    service controls both ends of every connection. *)

type request = {
  meth : string;  (** Upper-cased method, e.g. ["GET"]. *)
  target : string;  (** Raw request target as sent. *)
  path : string;  (** Percent-decoded path, query stripped. *)
  query : (string * string) list;  (** Decoded query pairs, in order. *)
  headers : (string * string) list;  (** Names lower-cased, values trimmed. *)
  body : string;
  version : string;  (** ["HTTP/1.1"] or ["HTTP/1.0"] as sent. *)
}

type response = {
  status : int;
  resp_headers : (string * string) list;
  body : string;
}

type error =
  | Too_large of string  (** A line, header block or body over its cap. *)
  | Malformed of string  (** Anything else the parser rejects. *)

val error_to_string : error -> string

val header : request -> string -> string option
(** Case-insensitive header lookup. *)

val wants_keep_alive : request -> bool
(** HTTP/1.1 defaults to keep-alive unless [Connection: close];
    HTTP/1.0 defaults to close unless [Connection: keep-alive]. *)

(** {2 Incremental parsing}

    Feed whatever [read(2)] returned, then drain with [next] until it
    says [`Await]:

    {[
      Parser.feed p chunk 0 n;
      let rec drain () =
        match Parser.next p with
        | `Request req -> handle req; drain ()
        | `Await -> ()
        | `Error e -> reject e
      in
      drain ()
    ]}

    Errors are sticky: after [`Error] the parser stays broken and the
    connection should be closed (the daemon writes a 400 or 413 first). *)

module Parser : sig
  type t

  type outcome = [ `Request of request | `Await | `Error of error ]

  val create : ?max_line:int -> ?max_headers:int -> ?max_body:int -> unit -> t
  (** Defaults: 8 KiB lines, 64 headers, 1 MiB body. *)

  val feed : t -> bytes -> int -> int -> unit
  (** [feed p buf off len] appends [len] bytes of input.  The bytes are
      copied; [buf] may be reused immediately. *)

  val feed_string : t -> string -> unit

  val next : t -> outcome
  (** Extract the next complete request, if the buffered input holds
      one.  Call repeatedly — pipelined peers put several requests in
      one chunk. *)

  val buffered : t -> int
  (** Bytes fed but not yet consumed into a request. *)
end

module Rparser : sig
  type t

  type outcome = [ `Response of response | `Await | `Error of error ]

  val create : ?max_body:int -> unit -> t
  (** Caps: 8 KiB lines, 256 headers, [max_body] (default 16 MiB).
      Responses must carry [Content-Length] (ours always do) —
      pipelining leaves no other way to delimit them. *)

  val feed : t -> bytes -> int -> int -> unit
  val feed_string : t -> string -> unit

  val next : ?head:bool -> t -> outcome
  (** Like {!Parser.next}.  [~head:true] reads the answer to a [HEAD]
      request: its [Content-Length] is kept in [resp_headers], but no
      body follows. *)

  val buffered : t -> int
end

(** {2 Encoding} *)

val encode_request :
  ?meth:string ->
  ?req_headers:(string * string) list ->
  ?body:string ->
  string ->
  string
(** Render a request as wire bytes ([GET] by default, [Host] always, a
    [body] implies [Content-Length]).  No [Connection] header is added,
    so the exchange defaults to keep-alive — the load generator's
    pipelined connections are built from these. *)

val encode_response :
  ?headers:(string * string) list ->
  ?head_only:bool ->
  ?keep_alive:bool ->
  status:int ->
  body:string ->
  unit ->
  string
(** Render a complete response as wire bytes ([Content-Length] always;
    [Content-Type: text/plain; charset=utf-8] unless [headers] carries
    one; [Connection: keep-alive] or [close] per [keep_alive], default
    close).  [head_only] suppresses the body while keeping its length
    header (HEAD semantics). *)

(** {2 Decoding helpers} (exposed for tests) *)

val percent_decode : string -> string
(** [%XX] unescaping plus [+] to space; malformed escapes pass through. *)

val parse_query : string -> (string * string) list

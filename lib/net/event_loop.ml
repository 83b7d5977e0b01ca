type config = {
  max_clients : int;
  conn_buffer : int;
  max_line : int;
  default_limits : Tenant.limits;
  tenant_limits : (string * Tenant.limits) list;
}

let default_config =
  {
    max_clients = 256;
    conn_buffer = 4 * 1024 * 1024;
    max_line = 1 lsl 20;
    default_limits = Tenant.unlimited;
    tenant_limits = [];
  }

let anon_client = "anon"

(* [Unix.select] only handles file descriptors numbered below
   FD_SETSIZE (1024 on Linux).  An accepted socket at or past that
   number would make every subsequent select fail with EINVAL and take
   the whole loop down, so the connection budget is validated against
   the fd space up front and every accepted fd is checked numerically
   before it joins the select sets. *)
let fd_setsize = 1024

(* Head room kept under FD_SETSIZE for the wake pipe, the listeners,
   stdio and whatever descriptors the rest of the process holds open
   (instance files being loaded, the engine's own plumbing). *)
let fd_reserve = 32

(* On Unix a [Unix.file_descr] is the plain fd number. *)
let fd_int (fd : Unix.file_descr) : int = Obj.magic fd

type listener = {
  lfd : Unix.file_descr;
  l_desc : string;
  l_path : string option;  (* unix socket path, unlinked on close *)
}

type t = {
  engine : Server.t;
  cfg : config;
  max_clients : int;
      (* [cfg.max_clients] clamped to the select fd budget
         ([fd_setsize - fd_reserve]) at create time *)
  mutable spare_fd : Unix.file_descr option;
      (* sacrificial descriptor: on EMFILE/ENFILE it is closed to free
         one slot so the pending connection can still be accepted,
         refused and closed, instead of leaving the listener readable
         forever *)
  tenants : Tenant.t;
  mutable listeners : listener list;
  conns : (int, Conn.t) Hashtbl.t;  (* loop thread only *)
  (* [cm] guards the cross-domain completion state: every [Conn.pending]'s
     [lines] field and the [dirty] work list.  Engine completion
     callbacks run with no engine lock held, take [cm] briefly, and
     wake the loop; the loop never calls into the engine while holding
     [cm] except for metrics/stats snapshots, which use their own leaf
     mutex. *)
  cm : Mutex.t;
  mutable dirty : Conn.t list;
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
  draining : bool Atomic.t;
  (* Session ownership: sid -> client id of the tenant that opened it.
     Loop thread only.  Ownership is per client id, not per
     connection — a tenant may drive its session from any of its
     connections; other tenants get [REJECTED not-owner]. *)
  session_owner : (int, string) Hashtbl.t;
  mutable next_id : int;
}

let create ?(config = default_config) engine =
  let tenants = Tenant.create ~default:config.default_limits () in
  List.iter (fun (name, l) -> Tenant.set_limits tenants name l)
    config.tenant_limits;
  let wake_r, wake_w = Unix.pipe ~cloexec:true () in
  Unix.set_nonblock wake_r;
  Unix.set_nonblock wake_w;
  let max_clients = min config.max_clients (fd_setsize - fd_reserve) in
  let spare_fd =
    try Some (Unix.openfile "/dev/null" [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0)
    with _ -> None
  in
  {
    engine;
    cfg = config;
    max_clients;
    spare_fd;
    tenants;
    listeners = [];
    conns = Hashtbl.create 32;
    cm = Mutex.create ();
    dirty = [];
    wake_r;
    wake_w;
    draining = Atomic.make false;
    session_owner = Hashtbl.create 32;
    next_id = 0;
  }

let wake t =
  try ignore (Unix.write_substring t.wake_w "w" 0 1)
  with Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EPIPE), _, _)
  -> ()

let drain_wake t =
  let scratch = Bytes.create 256 in
  let rec go () =
    match Unix.read t.wake_r scratch 0 256 with
    | exception
        Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
      -> ()
    | 0 -> ()
    | _ -> go ()
  in
  go ()

let request_drain t =
  Atomic.set t.draining true;
  wake t

let draining t = Atomic.get t.draining
let connections t = Hashtbl.length t.conns
let effective_max_clients t = t.max_clients

(* --- listeners -------------------------------------------------------- *)

let resolve_host host =
  match Unix.inet_addr_of_string host with
  | addr -> addr
  | exception _ -> (
    match Unix.gethostbyname host with
    | { Unix.h_addr_list = [||]; _ } ->
      failwith (Printf.sprintf "cannot resolve host %s" host)
    | h -> h.Unix.h_addr_list.(0)
    | exception Not_found ->
      failwith (Printf.sprintf "cannot resolve host %s" host))

let add_tcp t ~host ~port =
  let addr = resolve_host host in
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.setsockopt fd Unix.SO_REUSEADDR true;
     Unix.bind fd (Unix.ADDR_INET (addr, port));
     Unix.listen fd 128;
     Unix.set_nonblock fd
   with e ->
     (try Unix.close fd with _ -> ());
     raise e);
  let bound_port =
    match Unix.getsockname fd with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> port
  in
  let desc =
    Printf.sprintf "%s:%d" (Unix.string_of_inet_addr addr) bound_port
  in
  t.listeners <- { lfd = fd; l_desc = desc; l_path = None } :: t.listeners;
  (Unix.string_of_inet_addr addr, bound_port)

let add_unix t path =
  (match Unix.lstat path with
   | { Unix.st_kind = Unix.S_SOCK; _ } -> (try Unix.unlink path with _ -> ())
   | _ -> failwith (Printf.sprintf "%s exists and is not a socket" path)
   | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ());
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try
     Unix.bind fd (Unix.ADDR_UNIX path);
     Unix.listen fd 128;
     Unix.set_nonblock fd
   with e ->
     (try Unix.close fd with _ -> ());
     raise e);
  t.listeners <-
    { lfd = fd; l_desc = "unix:" ^ path; l_path = Some path } :: t.listeners

let close_listeners t =
  List.iter
    (fun l ->
      (try Unix.close l.lfd with _ -> ());
      match l.l_path with
      | Some path -> ( try Unix.unlink path with _ -> ())
      | None -> ())
    t.listeners;
  t.listeners <- []

let new_conn t ~fd_in ~fd_out ~owns_fds ~peer ~max_out =
  t.next_id <- t.next_id + 1;
  let conn =
    Conn.create ~id:t.next_id ~fd_in ~fd_out ~owns_fds ~peer ~max_out
      ~max_line:t.cfg.max_line
      ~tenant:(Tenant.find t.tenants anon_client)
  in
  Hashtbl.replace t.conns conn.Conn.id conn;
  conn

let add_pipe t ~fd_in ~fd_out =
  ignore
    (new_conn t ~fd_in ~fd_out ~owns_fds:false ~peer:"pipe" ~max_out:0)

(* --- completion plumbing ---------------------------------------------- *)

let mark_dirty_locked t conn =
  if not (List.memq conn t.dirty) then t.dirty <- conn :: t.dirty

(* Engine completion callbacks land here, from worker domains (or
   synchronously from the loop thread on a cache hit). *)
let complete t conn (p : Conn.pending) lines =
  Mutex.lock t.cm;
  p.lines <- Some lines;
  mark_dirty_locked t conn;
  Mutex.unlock t.cm;
  wake t

let push_item t conn item =
  Mutex.lock t.cm;
  Queue.push item conn.Conn.items;
  mark_dirty_locked t conn;
  Mutex.unlock t.cm

let push_lines t conn lines = push_item t conn (Conn.Lines lines)

(* Out-of-band: jumps the answer FIFO straight into the out buffer.
   Only PING/METRICS use this — they are health probes and must not
   queue behind a long solve. *)
let push_oob _t conn lines = Conn.append_lines conn lines

let force_close t conn =
  if not conn.Conn.closed then begin
    conn.Conn.closed <- true;
    conn.Conn.eof <- true;
    conn.Conn.lines_pending <- [];
    Hashtbl.remove t.conns conn.Conn.id;
    if conn.Conn.owns_fds then begin
      (try Unix.close conn.Conn.fd_in with _ -> ());
      if conn.Conn.fd_out != conn.Conn.fd_in then
        try Unix.close conn.Conn.fd_out with _ -> ()
    end
  end

(* Render every head-of-queue item that is ready.  Called with [cm]
   held; collects connections whose SYNC barrier released so the
   caller can resume their command intake outside the lock. *)
let flush_ready t conn unblocked =
  let rec go () =
    match Queue.peek_opt conn.Conn.items with
    | None -> ()
    | Some (Conn.Lines ls) ->
      ignore (Queue.pop conn.Conn.items);
      Conn.append_lines conn ls;
      go ()
    | Some (Conn.Pending p) -> (
      match p.Conn.lines with
      | None -> ()
      | Some ls ->
        ignore (Queue.pop conn.Conn.items);
        Conn.append_lines conn ls;
        go ())
    | Some Conn.Stats_here ->
      ignore (Queue.pop conn.Conn.items);
      Conn.append_lines conn [ Server.stats_json t.engine ];
      go ()
    | Some Conn.Sync_here ->
      ignore (Queue.pop conn.Conn.items);
      Conn.append_lines conn [ "c sync" ];
      conn.Conn.blocked <- false;
      if not (List.memq conn !unblocked) then unblocked := conn :: !unblocked;
      go ()
  in
  if not conn.Conn.closed then go ()

(* --- metrics helpers -------------------------------------------------- *)

let m_request t client =
  Server.Metrics.record_client_request (Server.metrics t.engine) ~client

let m_answered t client =
  Server.Metrics.record_client_answered (Server.metrics t.engine) ~client

let m_rejected t client =
  Server.Metrics.record_client_rejected (Server.metrics t.engine) ~client

(* --- command dispatch ------------------------------------------------- *)

let handle_solve_file t conn ~file ~deadline ~priority =
  conn.Conn.seq <- conn.Conn.seq + 1;
  let n = conn.Conn.seq in
  let ten = conn.Conn.tenant in
  let client = Tenant.name ten in
  m_request t client;
  let header = Server.Protocol.job_header ~seq:n ~file in
  if Conn.overloaded conn then begin
    m_rejected t client;
    push_lines t conn [ header; "REJECTED overloaded" ]
  end
  else if not (Tenant.try_acquire t.tenants ten) then begin
    m_rejected t client;
    push_lines t conn [ header; "REJECTED quota" ]
  end
  else begin
    let priority = Tenant.effective_priority ten priority in
    match Server.Protocol.submit_file t.engine ?deadline ~priority file with
    | Error line ->
      Tenant.release t.tenants ten;
      m_rejected t client;
      push_lines t conn [ header; line ]
    | Ok (ticket, num_vars) ->
      let p = { Conn.lines = None } in
      push_item t conn (Conn.Pending p);
      Server.on_answer t.engine ticket (fun a ->
          Tenant.release t.tenants ten;
          m_answered t client;
          complete t conn p
            (Server.Protocol.answer_lines ~seq:n ~file ~num_vars a))
  end

let handle_session t conn ~sid ~verb submit =
  conn.Conn.seq <- conn.Conn.seq + 1;
  let n = conn.Conn.seq in
  let ten = conn.Conn.tenant in
  let client = Tenant.name ten in
  m_request t client;
  let header = Server.Protocol.session_header ~sid ~seq:n ~verb in
  let foreign =
    match Hashtbl.find_opt t.session_owner sid with
    | Some owner -> owner <> client
    | None -> false  (* unknown sids fall through to the engine's answer *)
  in
  if foreign then begin
    m_rejected t client;
    push_lines t conn [ header; "REJECTED not-owner" ]
  end
  else if Conn.overloaded conn then begin
    m_rejected t client;
    push_lines t conn [ header; "REJECTED overloaded" ]
  end
  else if not (Tenant.try_acquire t.tenants ten) then begin
    m_rejected t client;
    push_lines t conn [ header; "REJECTED quota" ]
  end
  else
    match submit () with
    | Error reason ->
      Tenant.release t.tenants ten;
      m_rejected t client;
      push_lines t conn [ header; "REJECTED " ^ reason ]
    | Ok ticket ->
      let p = { Conn.lines = None } in
      push_item t conn (Conn.Pending p);
      Server.Session.on_answer ticket (fun a ->
          Tenant.release t.tenants ten;
          m_answered t client;
          complete t conn p
            (Server.Protocol.session_answer_lines ~seq:n ~sid ~verb a))

let handle_open t conn =
  conn.Conn.seq <- conn.Conn.seq + 1;
  let n = conn.Conn.seq in
  let client = Tenant.name conn.Conn.tenant in
  m_request t client;
  match Server.open_session t.engine with
  | Ok sid ->
    Hashtbl.replace t.session_owner sid client;
    m_answered t client;
    push_lines t conn
      [ Server.Protocol.open_header ~seq:n; Printf.sprintf "OPENED %d" sid ]
  | Error reason ->
    m_rejected t client;
    push_lines t conn
      [ Server.Protocol.open_header ~seq:n; "REJECTED " ^ reason ]

let process_line t conn line =
  match Server.Protocol.parse_request line with
  | Server.Protocol.Comment -> ()
  | Server.Protocol.Quit ->
    conn.Conn.eof <- true;
    conn.Conn.lines_pending <- []
  | Server.Protocol.Ping -> push_oob t conn [ "PONG" ]
  | Server.Protocol.Metrics_now ->
    push_oob t conn [ Server.stats_json t.engine ]
  | Server.Protocol.Client name ->
    conn.Conn.tenant <- Tenant.find t.tenants name;
    push_lines t conn [ "HELLO " ^ name ]
  | Server.Protocol.Bad msg -> push_lines t conn [ msg ]
  | Server.Protocol.Stats -> push_item t conn Conn.Stats_here
  | Server.Protocol.Sync ->
    conn.Conn.blocked <- true;
    push_item t conn Conn.Sync_here
  | Server.Protocol.Open_session -> handle_open t conn
  | Server.Protocol.Solve_file { file; deadline; priority } ->
    handle_solve_file t conn ~file ~deadline ~priority
  | Server.Protocol.Session_solve { sid; deadline } ->
    handle_session t conn ~sid ~verb:"solve" (fun () ->
        Server.submit_session_solve t.engine ?deadline sid)
  | Server.Protocol.Session_op { sid; verb; op } ->
    handle_session t conn ~sid ~verb (fun () ->
        Server.session_submit t.engine sid op)

let rec process_lines t conn =
  if (not conn.Conn.closed) && not conn.Conn.blocked then
    match conn.Conn.lines_pending with
    | [] -> ()
    | line :: rest ->
      conn.Conn.lines_pending <- rest;
      (* QUIT clears [lines_pending] itself, so a command that arrived
         in the same chunk after QUIT is dropped — and the final
         unterminated line delivered at EOF still dispatches. *)
      process_line t conn line;
      process_lines t conn

(* Render completed answers into out buffers until no connection has
   renderable progress left.  A SYNC release re-opens command intake,
   which may push new items, so loop to a fixed point. *)
let rec drain_dirty t =
  Mutex.lock t.cm;
  let dirty = t.dirty in
  t.dirty <- [];
  let unblocked = ref [] in
  List.iter (fun conn -> flush_ready t conn unblocked) dirty;
  let more = t.dirty <> [] in
  Mutex.unlock t.cm;
  List.iter (fun conn -> process_lines t conn) !unblocked;
  let more =
    more
    ||
    (Mutex.lock t.cm;
     let d = t.dirty <> [] in
     Mutex.unlock t.cm;
     d)
  in
  if more then drain_dirty t

(* --- reading ---------------------------------------------------------- *)

let handle_read t conn scratch =
  match Unix.read conn.Conn.fd_in scratch 0 (Bytes.length scratch) with
  | exception
      Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
    -> ()
  | exception Unix.Unix_error (_, _, _) -> force_close t conn
  | 0 ->
    conn.Conn.eof <- true;
    (* A final command without a trailing newline still counts. *)
    (match Framing.finish conn.Conn.framing with
     | Some line ->
       conn.Conn.lines_pending <- conn.Conn.lines_pending @ [ line ]
     | None -> ());
    process_lines t conn
  | n -> (
    match Framing.feed conn.Conn.framing scratch n with
    | Error `Line_too_long ->
      conn.Conn.eof <- true;
      conn.Conn.lines_pending <- [];
      push_lines t conn [ "ERROR line too long" ]
    | Ok lines ->
      conn.Conn.lines_pending <- conn.Conn.lines_pending @ lines;
      process_lines t conn)

(* Refuse an accepted connection: answer, count, close.  Used for the
   connection-count bound, for fds select could not handle, and for
   the EMFILE shed path. *)
let refuse_accept t fd =
  m_rejected t anon_client;
  let msg = "REJECTED overloaded\n" in
  (try ignore (Unix.write_substring fd msg 0 (String.length msg))
   with _ -> ());
  try Unix.close fd with _ -> ()

let handle_accept t l =
  match Unix.accept ~cloexec:true l.lfd with
  | exception
      Unix.Unix_error
        ( ( Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR
          | Unix.ECONNABORTED ),
          _, _ ) -> ()
  | exception Unix.Unix_error ((Unix.EMFILE | Unix.ENFILE), _, _) -> (
    (* The process is out of descriptors.  Sacrifice the spare fd so
       the waiting connection can be accepted and told why it is being
       turned away; otherwise the listener stays readable and the loop
       spins on a connection it can never service. *)
    match t.spare_fd with
    | None -> ()
    | Some spare ->
      t.spare_fd <- None;
      (try Unix.close spare with _ -> ());
      (match Unix.accept ~cloexec:true l.lfd with
       | exception _ -> ()
       | fd, _ -> refuse_accept t fd);
      (try
         t.spare_fd <-
           Some
             (Unix.openfile "/dev/null"
                [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0)
       with _ -> ()))
  | fd, peer_addr ->
    if Hashtbl.length t.conns >= t.max_clients || fd_int fd >= fd_setsize
    then refuse_accept t fd
    else begin
      Unix.set_nonblock fd;
      let peer =
        match peer_addr with
        | Unix.ADDR_INET (a, p) ->
          Printf.sprintf "%s:%d" (Unix.string_of_inet_addr a) p
        | Unix.ADDR_UNIX _ -> l.l_desc
      in
      ignore
        (new_conn t ~fd_in:fd ~fd_out:fd ~owns_fds:true ~peer
           ~max_out:t.cfg.conn_buffer)
    end

(* --- the loop --------------------------------------------------------- *)

let conn_list t = Hashtbl.fold (fun _ c acc -> c :: acc) t.conns []

let sweep t =
  List.iter
    (fun conn ->
      if Conn.over_hard_limit conn then
        (* The peer has stopped reading: cut it loose rather than
           buffer without bound.  In-flight engine work still resolves
           (and releases its quota slot); the rendered bytes are
           dropped with the connection. *)
        force_close t conn
      else if
        conn.Conn.eof
        && conn.Conn.lines_pending = []
        && Queue.is_empty conn.Conn.items
        && Conn.pending_out conn = 0
      then force_close t conn)
    (conn_list t)

let run t =
  let scratch = Bytes.create 65536 in
  let drained = ref false in
  let stop = ref false in
  while not !stop do
    if Atomic.get t.draining && not !drained then begin
      drained := true;
      close_listeners t;
      (* Drain contract: stop accepting, stop reading, drop commands
         that were buffered but never dispatched, finish and flush
         everything already in flight. *)
      Hashtbl.iter
        (fun _ c ->
          c.Conn.eof <- true;
          c.Conn.lines_pending <- [])
        t.conns
    end;
    drain_dirty t;
    List.iter
      (fun conn ->
        if (not conn.Conn.closed) && Conn.pending_out conn > 0 then
          match Conn.try_write conn with
          | `Ok -> ()
          | `Peer_gone -> force_close t conn)
      (conn_list t);
    sweep t;
    if Hashtbl.length t.conns = 0 && t.listeners = [] then stop := true
    else begin
      let reads = ref [ t.wake_r ] in
      (* Listeners stay selectable at capacity: the accept path itself
         refuses the surplus connection with an answer, which beats
         letting it sit unanswered in the backlog. *)
      List.iter (fun l -> reads := l.lfd :: !reads) t.listeners;
      Hashtbl.iter
        (fun _ c ->
          if (not c.Conn.eof) && not c.Conn.blocked then
            reads := c.Conn.fd_in :: !reads)
        t.conns;
      let writes =
        Hashtbl.fold
          (fun _ c acc ->
            if Conn.pending_out c > 0 then c.Conn.fd_out :: acc else acc)
          t.conns []
      in
      match Unix.select !reads writes [] 1.0 with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | r, w, _ ->
        if List.memq t.wake_r r then drain_wake t;
        List.iter
          (fun l -> if List.memq l.lfd r then handle_accept t l)
          t.listeners;
        List.iter
          (fun conn ->
            if (not conn.Conn.closed) && List.memq conn.Conn.fd_in r then
              handle_read t conn scratch)
          (conn_list t);
        List.iter
          (fun conn ->
            if
              (not conn.Conn.closed)
              && List.memq conn.Conn.fd_out w
              && Conn.pending_out conn > 0
            then
              match Conn.try_write conn with
              | `Ok -> ()
              | `Peer_gone -> force_close t conn)
          (conn_list t)
    end
  done;
  (* Loop exit is the fully-drained state; leave the wake pipe to the
     process (create/run may not be paired with a destructor), but
     make sure listener sockets and paths are gone. *)
  close_listeners t

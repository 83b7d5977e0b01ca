(* CDCL solver.  Literal encoding: variable v (0-based) gives literals
   2v (positive) and 2v+1 (negative); [neg l = l lxor 1].  The
   implementation follows the MiniSat/Kissat lineage:

   - all long clauses (length >= 3) live in one flat int {e arena}: a
     clause reference ("cref") is an offset into a single growable
     [int array]; a one-word header packs size, learnt/deleted flags
     and LBD, a second word holds the clause activity as a scaled int,
     and the literals follow inline.  Propagation therefore reads
     literals with zero pointer dereferences and metadata with one;
   - assignments in a literal-indexed value table, one byte per
     literal (0 false, 1 true, 2 unassigned): [enqueue] writes both
     polarities, so reading a literal's value is a single byte load;
   - two-watched-literal propagation over one-word watchers: each packs
     [(cref lsl 31) lor blocker] into one int, one int array per
     literal, so a satisfied clause is skipped with a single value
     lookup and no clause access.  The packing bounds the solver to
     2^30 - 1 variables (literals fit in 31 bits) and an arena of 2^32
     words (crefs fit in the remaining 32 bits of a 63-bit int); both
     limits are checked, and exceeding them raises instead of
     corrupting a watcher;
   - specialized binary-clause watch lists (literal pairs, no clause
     storage at all) consulted before the long-clause watchers;
   - first-UIP conflict analysis with recursive minimization, with the
     clause LBD computed *before* backjumping (all literals still
     assigned);
   - learnt-database reduction that marks the worse half deleted and
     then compacts the arena with a copying collector, relocating
     every live reference (watchers, reasons, learnt index) through
     forwarding pointers written into the old arena;
   - Luby or Glucose (LBD moving-average) restarts;
   - a level-0 XOR pass before search ({!Gauss}), on the whole-formula
     entry points and only without a proof: [prepare] offers each
     normalized clause of width <= 6 to a collector that recovers the
     parity constraints encoded as complete clause sets, and
     Gauss–Jordan elimination over them either refutes the formula or
     adds the units and binary equivalences it derives that the input
     lacks.  With fewer than two XORs, or nothing new, the clause
     database is exactly the input's.

   Both the batch and the incremental entry points drive the same
   [search] engine; assumptions are placed as pseudo-decisions on the
   first decision levels, and a final conflict against an assumption
   yields an assumption core. *)

type result = Sat of bool array | Unsat | Unknown

type stats = {
  decisions : int;
  conflicts : int;
  propagations : int;
  restarts : int;
  learned : int;
  reduces : int;
  probed : int;
  vivified : int;
  inproc_subsumed : int;
  xors : int;
  xor_derived : int;
  max_decision_level : int;
  time : float;
  cpu_time : float;
  minor_words : float;
  major_collections : int;
}

let empty_stats =
  {
    decisions = 0;
    conflicts = 0;
    propagations = 0;
    restarts = 0;
    learned = 0;
    reduces = 0;
    probed = 0;
    vivified = 0;
    inproc_subsumed = 0;
    xors = 0;
    xor_derived = 0;
    max_decision_level = 0;
    time = 0.0;
    cpu_time = 0.0;
    minor_words = 0.0;
    major_collections = 0;
  }

type limits = {
  max_conflicts : int option;
  max_decisions : int option;
  max_seconds : float option;
  deadline : float option;
}

(* Cooperative cancellation, after minisat's interrupt /
   clearInterrupt.  The flag is an [Atomic.t] so another domain can
   raise it asynchronously; the search probes it on every budget tick
   (one per conflict or decision) and gives up with [Unknown]. *)
module Interrupt = struct
  type t = bool Atomic.t

  let create () = Atomic.make false
  let set t = Atomic.set t true
  let clear t = Atomic.set t false
  let is_set t = Atomic.get t
end

let no_limits =
  { max_conflicts = None; max_decisions = None; max_seconds = None;
    deadline = None }

(* --- clause arena --------------------------------------------------

   Layout of a clause at cref [c] (offsets in words):

     arena.(c)       header: size | lbd | deleted | learnt
     arena.(c + 1)   activity (scaled int; see below)
     arena.(c + 2..) the [size] literals, inline

   Header word, low bits to high:

     bit 0         learnt flag
     bit 1         deleted flag
     bits 2..27    LBD (clamped to 26 bits)
     bits 28..     size (number of literals)

   cref 0 is the null reference — arena slot 0 is a sentinel — so an
   [int] reason can encode "no reason" as 0 (see [reason] below).

   Activities are stored as scaled ints rather than floats: this
   solver bumps a clause by exactly 1.0 and never decays clause
   activities, so an int counter represents the float value exactly
   (no rounding, identical sort order) while keeping the arena a
   homogeneous unboxed int array. *)

let hdr_learnt = 1
let hdr_deleted = 2
let lbd_shift = 2
let lbd_width = 26
let lbd_mask = (1 lsl lbd_width) - 1
let size_shift = lbd_shift + lbd_width

let mk_header ~size ~learnt ~lbd =
  (size lsl size_shift)
  lor (min lbd lbd_mask lsl lbd_shift)
  lor (if learnt then hdr_learnt else 0)

(* Growable vector.  Fresh vectors share an empty backing array so
   that per-literal structures cost nothing until first use — a solver
   over n variables creates 2n of them up front. *)
type 'a vec = { mutable data : 'a array; mutable size : int; dummy : 'a }

let vec_create dummy = { data = [||]; size = 0; dummy }

let vec_push v x =
  if v.size >= Array.length v.data then begin
    let d = Array.make (max 4 (2 * Array.length v.data)) v.dummy in
    Array.blit v.data 0 d 0 v.size;
    v.data <- d
  end;
  v.data.(v.size) <- x;
  v.size <- v.size + 1

(* Packing limits.  A watcher is one 63-bit int holding a cref in its
   high 32 bits and a literal in its low 31, so literals must fit in 31
   bits (at most 2^30 - 1 variables) and crefs in 32 (an arena of at
   most 2^32 words). *)
let max_vars = (1 lsl 30) - 1
let max_arena_words = 1 lsl 32
let blocker_mask = (1 lsl 31) - 1

let check_num_vars n =
  if n > max_vars then
    invalid_arg
      (Printf.sprintf
         "Sat.Solver: %d variables exceed the solver's limit of %d (2^30 - 1)"
         n max_vars)

(* Watcher list for clauses of length >= 3: one int per watcher,
   [(cref lsl 31) lor blocker], with [wn] counting used entries.  The
   blocker is some other literal of the clause; if it is currently true
   the clause is satisfied and propagation skips it without touching
   the arena. *)
type watchlist = { mutable w : int array; mutable wn : int }

let no_ints : int array = [||]

let wl_create () = { w = no_ints; wn = 0 }

let[@inline] watcher c b = (c lsl 31) lor b
let[@inline] watcher_cref w = w lsr 31

let wl_push wl w =
  if wl.wn >= Array.length wl.w then begin
    let d = Array.make (max 4 (2 * Array.length wl.w)) 0 in
    Array.blit wl.w 0 d 0 wl.wn;
    wl.w <- d
  end;
  wl.w.(wl.wn) <- w;
  wl.wn <- wl.wn + 1

(* Assignment reasons, one int per variable:
     0    no reason (decision / assumption / level-0 unit)
     > 0  cref of the propagating long clause
     < 0  binary clause; the (false) partner literal is [-r - 1]. *)
let reason_none = 0
let reason_binary w = -w - 1
let binary_partner r = -r - 1

(* A conflict, viewed as the clause that is falsified.  Binary
   conflicts carry their two literals directly. *)
type conflict = Confl_clause of int | Confl_binary of int * int

type t = {
  mutable nvars : int;
  (* Assignment, one byte per literal (length 2 * capacity): 0 false,
     1 true, 2 unassigned.  Both literals of a variable are written
     together. *)
  mutable vals : Bytes.t;
  mutable level : int array;
  mutable reason : int array;
  (* Trail of assigned literals, with decision-level boundaries. *)
  mutable trail : int array;
  mutable trail_size : int;
  mutable trail_lim : int array;
  mutable ntrail_lim : int;
  mutable qhead : int;
  (* The clause arena; [arena_size] is the next free word and
     [arena_wasted] counts words held by deleted clauses.  [arena_spare]
     is the compaction target, ping-ponged with [arena] so steady-state
     reductions allocate nothing. *)
  mutable arena : int array;
  mutable arena_size : int;
  mutable arena_spare : int array;
  mutable arena_wasted : int;
  (* Watches, indexed by literal: [watches.(l)] holds the long clauses
     to visit when [l] becomes true (i.e. clauses watching [neg l]);
     [bin_watches.(l)] holds the partner literals of binary clauses
     containing [neg l]. *)
  mutable watches : watchlist array;
  mutable bin_watches : int vec array;
  (* Decision heuristic. *)
  mutable var_activity : float array;
  mutable var_inc : float;
  mutable heap : int array;       (* binary max-heap of variables *)
  mutable heap_pos : int array;   (* position in heap, -1 if absent *)
  mutable heap_size : int;
  mutable polarity : bool array;  (* saved phases *)
  (* Learnt-clause index: crefs of long learnt clauses (learnt binaries
     live in the binary watch lists and are never deleted). *)
  learnts : int vec;
  (* Conflict analysis scratch. *)
  mutable seen : bool array;
  (* Scratch buffer for the clause being learned; slot 0 is reserved
     for the UIP. *)
  mutable learnt_buf : int array;
  mutable learnt_n : int;
  (* LBD computation scratch: per-level generation stamps. *)
  mutable lbd_mark : int array;
  mutable lbd_gen : int;
  (* Learning-rate branching (Liang et al. 2016) bookkeeping. *)
  mutable lrb : bool;
  mutable lrb_alpha : float;
  mutable assigned_at : int array;   (* conflict counter at assignment *)
  mutable participated : int array;
  (* Statistics. *)
  mutable st_decisions : int;
  mutable st_conflicts : int;
  mutable st_props : int;
  mutable st_restarts : int;
  mutable st_learned : int;
  mutable st_reduces : int;
  mutable st_probed : int;
  mutable st_vivified : int;
  mutable st_inproc_subsumed : int;
  mutable st_max_level : int;
  (* Failed-literal probing resumes its variable scan here, so
     successive inprocessing passes cover different variables. *)
  mutable inproc_head : int;
}

let var l = l lsr 1
let neg l = l lxor 1
let lit_of_var v sign = (v lsl 1) lor (if sign then 1 else 0)

(* Value of a literal: 0 false, 1 true, [undef] unassigned.  Hot-path
   callers index [vals] with internal literals that are in range by
   construction. *)
let undef = 2
let undef_byte = '\002'
let[@inline] value vals l = Char.code (Bytes.unsafe_get vals l)
let[@inline] lit_value s l = value s.vals l

(* The one per-variable reader: the value of [v]'s positive literal. *)
let var_value s v = lit_value s (v lsl 1)

let clause_size s c = Array.unsafe_get s.arena c lsr size_shift
let clause_lbd s c = (Array.unsafe_get s.arena c lsr lbd_shift) land lbd_mask
let clause_learnt s c = Array.unsafe_get s.arena c land hdr_learnt <> 0
let clause_lit s c i = Array.unsafe_get s.arena (c + 2 + i)

(* Copy a clause's literals out of the arena: anything that escapes the
   solver (proof steps, exports, telemetry) must be a fresh array, never
   a view into the arena, because compaction moves clauses. *)
let clause_lits s c =
  Array.init (clause_size s c) (fun i -> s.arena.(c + 2 + i))

let grow_array a n default =
  let a' = Array.make n default in
  Array.blit a 0 a' 0 (Array.length a);
  a'

let create nvars =
  check_num_vars nvars;
  {
    nvars;
    vals = Bytes.make (2 * nvars) undef_byte;
    level = Array.make nvars 0;
    reason = Array.make nvars reason_none;
    trail = Array.make (max 1 nvars) 0;
    trail_size = 0;
    trail_lim = Array.make (max 1 nvars) 0;
    ntrail_lim = 0;
    qhead = 0;
    arena = Array.make 256 0;
    arena_size = 1;   (* slot 0 is the null-cref sentinel *)
    arena_spare = no_ints;
    arena_wasted = 0;
    watches = Array.init (2 * max 1 nvars) (fun _ -> wl_create ());
    bin_watches = Array.init (2 * max 1 nvars) (fun _ -> vec_create 0);
    var_activity = Array.make nvars 0.0;
    var_inc = 1.0;
    heap = Array.make (max 1 nvars) 0;
    heap_pos = Array.make nvars (-1);
    heap_size = 0;
    polarity = Array.make nvars false;
    learnts = vec_create 0;
    seen = Array.make nvars false;
    learnt_buf = Array.make 16 0;
    learnt_n = 0;
    lbd_mark = Array.make (max 1 nvars + 1) 0;
    lbd_gen = 0;
    lrb = false;
    lrb_alpha = 0.4;
    assigned_at = Array.make nvars 0;
    participated = Array.make nvars 0;
    st_decisions = 0;
    st_conflicts = 0;
    st_props = 0;
    st_restarts = 0;
    st_learned = 0;
    st_reduces = 0;
    st_probed = 0;
    st_vivified = 0;
    st_inproc_subsumed = 0;
    st_max_level = 0;
    inproc_head = 0;
  }

(* --- arena allocation ---------------------------------------------- *)

let arena_ensure s extra =
  let need = s.arena_size + extra in
  if need > max_arena_words then
    failwith
      (Printf.sprintf
         "Sat.Solver: clause arena exceeds its limit of 2^32 words (%d \
          needed)"
         need);
  if need > Array.length s.arena then begin
    let cap = ref (max 256 (2 * Array.length s.arena)) in
    while !cap < need do
      cap := 2 * !cap
    done;
    let a = Array.make !cap 0 in
    Array.blit s.arena 0 a 0 s.arena_size;
    s.arena <- a
  end

(* Append a clause to the arena; returns its cref. *)
let alloc_clause s lits learnt lbd =
  let n = Array.length lits in
  arena_ensure s (n + 2);
  let c = s.arena_size in
  let a = s.arena in
  a.(c) <- mk_header ~size:n ~learnt ~lbd;
  a.(c + 1) <- 0;
  Array.blit lits 0 a (c + 2) n;
  s.arena_size <- c + 2 + n;
  c

(* --- variable heap (max-heap on activity) ------------------------- *)

let heap_less s a b = s.var_activity.(a) > s.var_activity.(b)

let rec heap_sift_up s i =
  if i > 0 then begin
    let p = (i - 1) / 2 in
    if heap_less s s.heap.(i) s.heap.(p) then begin
      let tmp = s.heap.(i) in
      s.heap.(i) <- s.heap.(p);
      s.heap.(p) <- tmp;
      s.heap_pos.(s.heap.(i)) <- i;
      s.heap_pos.(s.heap.(p)) <- p;
      heap_sift_up s p
    end
  end

let rec heap_sift_down s i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let best = ref i in
  if l < s.heap_size && heap_less s s.heap.(l) s.heap.(!best) then best := l;
  if r < s.heap_size && heap_less s s.heap.(r) s.heap.(!best) then best := r;
  if !best <> i then begin
    let tmp = s.heap.(i) in
    s.heap.(i) <- s.heap.(!best);
    s.heap.(!best) <- tmp;
    s.heap_pos.(s.heap.(i)) <- i;
    s.heap_pos.(s.heap.(!best)) <- !best;
    heap_sift_down s !best
  end

let heap_insert s v =
  if s.heap_pos.(v) < 0 then begin
    s.heap.(s.heap_size) <- v;
    s.heap_pos.(v) <- s.heap_size;
    s.heap_size <- s.heap_size + 1;
    heap_sift_up s s.heap_pos.(v)
  end

let heap_pop s =
  let v = s.heap.(0) in
  s.heap_size <- s.heap_size - 1;
  s.heap_pos.(v) <- -1;
  if s.heap_size > 0 then begin
    s.heap.(0) <- s.heap.(s.heap_size);
    s.heap_pos.(s.heap.(0)) <- 0;
    heap_sift_down s 0
  end;
  v

let bump_var s v =
  s.var_activity.(v) <- s.var_activity.(v) +. s.var_inc;
  if s.var_activity.(v) > 1e100 then begin
    for i = 0 to s.nvars - 1 do
      s.var_activity.(i) <- s.var_activity.(i) *. 1e-100
    done;
    s.var_inc <- s.var_inc *. 1e-100
  end;
  if s.heap_pos.(v) >= 0 then heap_sift_up s s.heap_pos.(v)

let decay_activities s =
  if s.lrb then s.lrb_alpha <- max 0.06 (s.lrb_alpha -. 3e-6)
  else s.var_inc <- s.var_inc /. 0.95

(* --- assignment --------------------------------------------------- *)

let decision_level s = s.ntrail_lim

(* Inlined: [propagate] assigns through here once per implied literal. *)
let[@inline] enqueue s l reason =
  let v = l lsr 1 in
  if s.lrb then begin
    s.assigned_at.(v) <- s.st_conflicts;
    s.participated.(v) <- 0
  end;
  Bytes.unsafe_set s.vals l '\001';
  Bytes.unsafe_set s.vals (l lxor 1) '\000';
  Array.unsafe_set s.level v (decision_level s);
  Array.unsafe_set s.reason v reason;
  Array.unsafe_set s.polarity v (l land 1 = 0);
  Array.unsafe_set s.trail s.trail_size l;
  s.trail_size <- s.trail_size + 1

let cancel_until s lvl =
  if decision_level s > lvl then begin
    let bound = s.trail_lim.(lvl) in
    for i = s.trail_size - 1 downto bound do
      let l = s.trail.(i) in
      let v = var l in
      Bytes.unsafe_set s.vals l undef_byte;
      Bytes.unsafe_set s.vals (l lxor 1) undef_byte;
      s.reason.(v) <- reason_none;
      if s.lrb then begin
        let interval = s.st_conflicts - s.assigned_at.(v) in
        if interval > 0 then begin
          let rate = float_of_int s.participated.(v) /. float_of_int interval in
          s.var_activity.(v) <-
            ((1.0 -. s.lrb_alpha) *. s.var_activity.(v))
            +. (s.lrb_alpha *. rate)
        end
      end;
      heap_insert s v
    done;
    s.trail_size <- bound;
    s.qhead <- bound;
    s.ntrail_lim <- lvl
  end

(* --- propagation --------------------------------------------------- *)

exception Found_conflict of conflict

(* The innermost loop of the solver.  All clause accesses go straight
   into the flat arena with unsafe reads: the watcher invariants keep
   every index in range (crefs come from [alloc_clause], literal slots
   from the clause's own header).  The value table, the watch array and
   the arena are only replaced between propagation calls (variables are
   added by [Incremental.ensure_capacity], clauses allocated in
   [search], the arena compacted in [reduce_db]), so they are held in
   locals for the whole call.  A moved watch is appended inline; only a
   full target list goes through [wl_push] to grow. *)
let propagate s =
  let vals = s.vals and watches = s.watches and arena = s.arena in
  try
    while s.qhead < s.trail_size do
      let l = Array.unsafe_get s.trail s.qhead in
      s.qhead <- s.qhead + 1;
      s.st_props <- s.st_props + 1;
      (* Binary clauses containing (neg l): the partner must hold. *)
      let bw = Array.unsafe_get s.bin_watches l in
      let bdata = bw.data in
      for i = 0 to bw.size - 1 do
        let other = Array.unsafe_get bdata i in
        let v = value vals other in
        if v = 0 then raise (Found_conflict (Confl_binary (neg l, other)))
        else if v = undef then enqueue s other (reason_binary (neg l))
      done;
      (* Long clauses watching (neg l). *)
      let wl = Array.unsafe_get watches l in
      let wdata = wl.w in
      let wn = wl.wn in
      let false_lit = neg l in
      let j = ref 0 in
      let i = ref 0 in
      while !i < wn do
        let w = Array.unsafe_get wdata !i in
        incr i;
        let blocker = w land blocker_mask in
        if value vals blocker = 1 then begin
          (* Satisfied via the blocker: keep, no arena access. *)
          Array.unsafe_set wdata !j w;
          incr j
        end
        else begin
          let c = watcher_cref w in
          (* Ensure the false literal is at position 1. *)
          let l0 = Array.unsafe_get arena (c + 2) in
          let first =
            if l0 = false_lit then begin
              let l1 = Array.unsafe_get arena (c + 3) in
              Array.unsafe_set arena (c + 2) l1;
              Array.unsafe_set arena (c + 3) false_lit;
              l1
            end
            else l0
          in
          let kept = watcher c first in
          if first <> blocker && value vals first = 1 then begin
            Array.unsafe_set wdata !j kept;
            incr j
          end
          else begin
            (* Look for a new literal to watch. *)
            let stop = c + 2 + (Array.unsafe_get arena c lsr size_shift) in
            let k = ref (c + 4) in
            while !k < stop && value vals (Array.unsafe_get arena !k) = 0 do
              incr k
            done;
            if !k < stop then begin
              let lk = Array.unsafe_get arena !k in
              Array.unsafe_set arena (c + 3) lk;
              Array.unsafe_set arena !k false_lit;
              (* watch moved: not kept in this list *)
              let tw = Array.unsafe_get watches (neg lk) in
              let tn = tw.wn in
              if tn < Array.length tw.w then begin
                Array.unsafe_set tw.w tn kept;
                tw.wn <- tn + 1
              end
              else wl_push tw kept
            end
            else if value vals first = 0 then begin
              (* Conflict: restore the remaining watchers. *)
              Array.unsafe_set wdata !j kept;
              incr j;
              while !i < wn do
                Array.unsafe_set wdata !j (Array.unsafe_get wdata !i);
                incr j;
                incr i
              done;
              wl.wn <- !j;
              raise (Found_conflict (Confl_clause c))
            end
            else begin
              (* Unit: propagate first. *)
              Array.unsafe_set wdata !j kept;
              incr j;
              enqueue s first c
            end
          end
        end
      done;
      wl.wn <- !j
    done;
    None
  with Found_conflict c -> Some c

(* --- conflict analysis --------------------------------------------- *)

let clause_bump_activity s c = s.arena.(c + 1) <- s.arena.(c + 1) + 1

(* Number of distinct decision levels among [lits], via generation
   stamps (all literals must currently be assigned). *)
let compute_lbd s lits =
  s.lbd_gen <- s.lbd_gen + 1;
  let g = s.lbd_gen in
  let n = ref 0 in
  for i = 0 to Array.length lits - 1 do
    let lev = s.level.(var lits.(i)) in
    if lev >= Array.length s.lbd_mark then
      s.lbd_mark <- grow_array s.lbd_mark (2 * (lev + 1)) 0;
    if s.lbd_mark.(lev) <> g then begin
      s.lbd_mark.(lev) <- g;
      incr n
    end
  done;
  !n

(* Is l redundant given the current learned clause (seen marks)?  A
   literal is redundant when its reason literals are all seen or
   themselves redundant (bounded recursive minimization). *)
let rec lit_redundant s depth l =
  depth < 32
  &&
  let r = s.reason.(var l) in
  if r = reason_none then false
  else if r < 0 then begin
    let w = binary_partner r in
    s.level.(var w) = 0 || s.seen.(var w) || lit_redundant s (depth + 1) w
  end
  else begin
    let n = clause_size s r in
    let ok = ref true in
    let i = ref 0 in
    while !ok && !i < n do
      let l' = clause_lit s r !i in
      if
        not
          (var l' = var l
          || s.level.(var l') = 0
          || s.seen.(var l')
          || lit_redundant s (depth + 1) l')
      then ok := false;
      incr i
    done;
    !ok
  end

(* One literal [q] of the antecedent being resolved in [analyze]: a
   fresh variable above level 0 is marked seen and bumped, then either
   counted as one more path to the UIP on the current level (returns 1)
   or collected for the learned clause (returns 0).  [p] is the literal
   last resolved on (-1 at the conflict itself), which reappears in its
   own reason and is skipped.  A top-level function rather than a
   closure, so [analyze]'s loop state stays in registers instead of
   heap-boxed refs. *)
let analyze_visit s p q =
  let v = var q in
  if (p < 0 || q <> p) && (not s.seen.(v)) && s.level.(v) > 0 then begin
    s.seen.(v) <- true;
    if s.lrb then s.participated.(v) <- s.participated.(v) + 1
    else bump_var s v;
    if s.level.(v) >= decision_level s then 1
    else begin
      if s.learnt_n >= Array.length s.learnt_buf then
        s.learnt_buf <- grow_array s.learnt_buf (2 * s.learnt_n) 0;
      s.learnt_buf.(s.learnt_n) <- q;
      s.learnt_n <- s.learnt_n + 1;
      0
    end
  end
  else 0

(* First-UIP learning.  Returns the learned clause (UIP first), the
   backjump level and the clause LBD — computed here, while every
   literal of the clause is still assigned, so the glue classification
   used by [reduce_db] is trustworthy. *)
let analyze s confl =
  (* Collected lower-level literals go into the scratch buffer; the
     only per-conflict allocation left is the learned clause itself
     (which must escape this call anyway).
     The antecedent being resolved is held as plain ints: a cref when
     positive, otherwise the binary pair (ba, bb). *)
  let path = ref 0 in
  let p = ref (-1) in
  let idx = ref (s.trail_size - 1) in
  let cref = ref 0 and ba = ref 0 and bb = ref 0 in
  (match confl with
   | Confl_clause c -> cref := c
   | Confl_binary (a, b) ->
     ba := a;
     bb := b);
  s.learnt_n <- 1;
  let continue = ref true in
  while !continue do
    if !cref > 0 then begin
      let c = !cref in
      if clause_learnt s c then clause_bump_activity s c;
      let n = clause_size s c in
      for i = 0 to n - 1 do
        path := !path + analyze_visit s !p (clause_lit s c i)
      done
    end
    else begin
      path := !path + analyze_visit s !p !ba;
      path := !path + analyze_visit s !p !bb
    end;
    (* Find the next seen literal on the trail. *)
    while not (Array.unsafe_get s.seen (Array.unsafe_get s.trail !idx lsr 1))
    do
      decr idx
    done;
    let q = s.trail.(!idx) in
    decr idx;
    s.seen.(var q) <- false;
    decr path;
    p := q;
    if !path = 0 then continue := false
    else begin
      let r = s.reason.(var q) in
      if r > 0 then cref := r
      else begin
        assert (r < 0);
        cref := 0;
        ba := q;
        bb := binary_partner r
      end
    end
  done;
  let uip = neg !p in
  (* Minimize: drop collected literals whose antecedents are covered by
     the rest of the clause.  All collected literals keep their [seen]
     marks during the scan (redundancy may be justified by a literal
     that is itself redundant), and are unmarked afterwards. *)
  let n = s.learnt_n in
  let lits = Array.make n uip in
  let j = ref 1 in
  (* Most-recently collected first: keeps the literal order (and hence
     the watched literals and the search trajectory) identical to the
     historical list-based implementation. *)
  for i = n - 1 downto 1 do
    let l = s.learnt_buf.(i) in
    if not (lit_redundant s 0 l) then begin
      lits.(!j) <- l;
      incr j
    end
  done;
  for i = 1 to n - 1 do
    s.seen.(var s.learnt_buf.(i)) <- false
  done;
  let lits = if !j = n then lits else Array.sub lits 0 !j in
  (* Backtrack level: second highest level in the clause. *)
  let blevel =
    if Array.length lits = 1 then 0
    else begin
      (* Move the literal with the highest level (below the current) to
         position 1. *)
      let best = ref 1 in
      for i = 2 to Array.length lits - 1 do
        if s.level.(var lits.(i)) > s.level.(var lits.(!best)) then best := i
      done;
      let tmp = lits.(1) in
      lits.(1) <- lits.(!best);
      lits.(!best) <- tmp;
      s.level.(var lits.(1))
    end
  in
  let lbd = compute_lbd s lits in
  (lits, blevel, lbd)

(* Internal literal -> DIMACS literal. *)
let dimacs_of_lit l =
  let v = (l lsr 1) + 1 in
  if l land 1 = 1 then -v else v

let log_add proof lits =
  match proof with
  | None -> ()
  | Some p -> Proof.add p (Array.map dimacs_of_lit lits)

(* Log the deletion of an arena clause; the literals are copied out of
   the arena first, so the proof never aliases relocatable storage. *)
let log_delete_clause proof s c =
  match proof with
  | None -> ()
  | Some p ->
    Proof.delete p (Array.map dimacs_of_lit (clause_lits s c))

(* Assumption core: the conflicting assumption [p] plus every
   pseudo-decision (assumption) reachable from it through the
   implication graph, as DIMACS literals.  Called while the trail still
   holds only assumption levels, so any reasonless assignment above
   level 0 is an assumption. *)
let analyze_final s p =
  let core = ref [ dimacs_of_lit p ] in
  let stack = ref [ var p ] in
  while !stack <> [] do
    match !stack with
    | [] -> ()
    | v :: rest ->
      stack := rest;
      if (not s.seen.(v)) && s.level.(v) > 0 then begin
        s.seen.(v) <- true;
        let r = s.reason.(v) in
        if r = reason_none then
          core := dimacs_of_lit (lit_of_var v (var_value s v = 0)) :: !core
        else if r < 0 then stack := var (binary_partner r) :: !stack
        else
          for i = 0 to clause_size s r - 1 do
            let l = clause_lit s r i in
            if var l <> v then stack := var l :: !stack
          done
      end
  done;
  for i = 0 to s.trail_size - 1 do
    s.seen.(var s.trail.(i)) <- false
  done;
  s.seen.(var p) <- false;
  Array.of_list !core

(* --- clause management --------------------------------------------- *)

(* Binary clause (a \/ b): no clause storage, just the two watch
   entries. *)
let add_binary s a b =
  vec_push s.bin_watches.(neg a) b;
  vec_push s.bin_watches.(neg b) a

(* Long clause (length >= 3), allocated in the arena and watched on its
   first two literals with the opposite watched literal as blocker. *)
let add_long s lits learnt lbd =
  let c = alloc_clause s lits learnt lbd in
  wl_push s.watches.(neg lits.(0)) (watcher c lits.(1));
  wl_push s.watches.(neg lits.(1)) (watcher c lits.(0));
  if learnt then begin
    vec_push s.learnts c;
    s.st_learned <- s.st_learned + 1
  end;
  c

(* [add_long] over the first [n] entries of a reusable scratch buffer:
   the literals are blitted straight into the arena, so the flat-ingest
   path ([prepare]) attaches every clause with zero per-clause
   allocation. *)
let add_long_slice s b n learnt lbd =
  arena_ensure s (n + 2);
  let c = s.arena_size in
  let a = s.arena in
  a.(c) <- mk_header ~size:n ~learnt ~lbd;
  a.(c + 1) <- 0;
  Array.blit b 0 a (c + 2) n;
  s.arena_size <- c + 2 + n;
  wl_push s.watches.(neg b.(0)) (watcher c b.(1));
  wl_push s.watches.(neg b.(1)) (watcher c b.(0));
  if learnt then begin
    vec_push s.learnts c;
    s.st_learned <- s.st_learned + 1
  end;
  c

(* A clause currently used as a reason must survive reduction. *)
let is_reason s c =
  let n = clause_size s c in
  let rec go i =
    i < n && (s.reason.(var (clause_lit s c i)) = c || go (i + 1))
  in
  go 0

(* Compact the arena with a copying collector.  Live clauses are moved
   into [arena_spare] in reference order; the first relocation of a
   cref writes a forwarding pointer (the negated new cref) over the old
   header, so the other watcher of the same clause — and any reason
   pointing at it — lands on the same copy.  Everything that can hold a
   cref is rewritten: the packed watchers (dropping deleted clauses,
   keeping each blocker), the reasons of trail literals, and the learnt
   index.
   Clauses reachable from none of those are dropped with the old
   arena.  The buffers then swap, so steady-state compactions allocate
   nothing. *)
let arena_gc s =
  let old = s.arena in
  if Array.length s.arena_spare < s.arena_size then
    s.arena_spare <- Array.make (Array.length old) 0;
  let dst = s.arena_spare in
  let next = ref 1 in
  let reloc c =
    let h = old.(c) in
    if h < 0 then -h
    else begin
      let len = (h lsr size_shift) + 2 in
      let nc = !next in
      Array.blit old c dst nc len;
      next := nc + len;
      old.(c) <- -nc;
      nc
    end
  in
  let deleted c =
    let h = old.(c) in
    h >= 0 && h land hdr_deleted <> 0
  in
  Array.iter
    (fun wl ->
      let j = ref 0 in
      let i = ref 0 in
      while !i < wl.wn do
        let w = wl.w.(!i) in
        let c = watcher_cref w in
        if not (deleted c) then begin
          wl.w.(!j) <- watcher (reloc c) (w land blocker_mask);
          incr j
        end;
        incr i
      done;
      wl.wn <- !j)
    s.watches;
  for i = 0 to s.trail_size - 1 do
    let v = var s.trail.(i) in
    let r = s.reason.(v) in
    if r > 0 then s.reason.(v) <- reloc r
  done;
  let lv = s.learnts in
  let j = ref 0 in
  for i = 0 to lv.size - 1 do
    let c = lv.data.(i) in
    if not (deleted c) then begin
      lv.data.(!j) <- reloc c;
      incr j
    end
  done;
  lv.size <- !j;
  s.arena <- dst;
  s.arena_spare <- old;
  s.arena_size <- !next;
  s.arena_wasted <- 0

let reduce_db ?proof s =
  (* Keep glue clauses (binaries never enter [learnts]); sort the rest
     in place by (lbd, activity) and mark the worse half deleted,
     except clauses currently locked as reasons; then compact. *)
  let lv = s.learnts in
  let n = lv.size in
  let p = ref 0 in
  for i = 0 to n - 1 do
    let c = lv.data.(i) in
    if clause_lbd s c <= 2 then begin
      lv.data.(i) <- lv.data.(!p);
      lv.data.(!p) <- c;
      incr p
    end
  done;
  let ncand = n - !p in
  if ncand > 0 then begin
    let cand = Array.sub lv.data !p ncand in
    Array.sort
      (fun a b ->
        let d = compare (clause_lbd s a) (clause_lbd s b) in
        if d <> 0 then d else compare s.arena.(b + 1) s.arena.(a + 1))
      cand;
    Array.blit cand 0 lv.data !p ncand;
    let limit = !p + (ncand / 2) in
    for i = !p to n - 1 do
      let c = lv.data.(i) in
      if not (i < limit || is_reason s c) then begin
        s.arena.(c) <- s.arena.(c) lor hdr_deleted;
        s.arena_wasted <- s.arena_wasted + clause_size s c + 2;
        log_delete_clause proof s c
      end
    done;
    s.st_reduces <- s.st_reduces + 1;
    (* Deleted clauses are filtered out of the learnt index and every
       watch list during compaction. *)
    arena_gc s
  end

(* --- restart-boundary inprocessing ---------------------------------- *)

(* Knobs for the level-0 inprocessing pass that fires every
   [inproc_interval] restarts: failed-literal probing, learnt-clause
   vivification and learnt-vs-learnt subsumption / self-subsuming
   strengthening.  Every derived clause is DRAT-logged before the
   clause it replaces is deleted, so proofs stay RUP-checkable with
   inprocessing enabled.  With [?inprocess] absent none of this code
   runs and the search trajectory is bit-identical to a solver without
   it. *)
type inprocess = {
  inproc_interval : int;  (** fire the pass every this many restarts *)
  probe_limit : int;      (** max literals probed per pass *)
  vivify_limit : int;     (** max learnt clauses vivified per pass *)
  subsume_window : int;
      (** pairwise subsumption window over the most recent learnt
          clauses *)
}

let default_inprocess =
  { inproc_interval = 4; probe_limit = 64; vivify_limit = 32;
    subsume_window = 32 }

exception Unsat_at_level0

let push_pseudo_level s =
  s.trail_lim.(s.ntrail_lim) <- s.trail_size;
  s.ntrail_lim <- s.ntrail_lim + 1

(* Propagate at decision level 0; a conflict there refutes the
   formula outright. *)
let confirm_level0 s ~proof =
  if propagate s <> None then begin
    log_add proof [||];
    raise Unsat_at_level0
  end

let wl_remove wl c =
  let i = ref 0 and found = ref false in
  while (not !found) && !i < wl.wn do
    if watcher_cref wl.w.(!i) = c then begin
      wl.w.(!i) <- wl.w.(wl.wn - 1);
      wl.wn <- wl.wn - 1;
      found := true
    end
    else incr i
  done

(* Delete a long clause outside reduce-db: log the deletion, unhook
   both watchers (the watch invariant keeps the watched literals at
   positions 0 and 1), mark the header deleted.  The next [arena_gc]
   drops the storage and filters the learnt index.  Must not be called
   on a clause currently used as a reason. *)
let delete_long s ~proof c =
  log_delete_clause proof s c;
  wl_remove s.watches.(neg (clause_lit s c 0)) c;
  wl_remove s.watches.(neg (clause_lit s c 1)) c;
  s.arena.(c) <- s.arena.(c) lor hdr_deleted;
  s.arena_wasted <- s.arena_wasted + clause_size s c + 2

(* Attach a shrunk replacement clause (internal literals, none false
   at level 0).  The caller has already logged the addition.  Units
   join the level-0 trail and propagate immediately. *)
let attach_shrunk s ~proof lits lbd =
  match Array.length lits with
  | 0 -> raise Unsat_at_level0 (* the logged empty clause sealed the proof *)
  | 1 -> (
    match lit_value s lits.(0) with
    | 0 ->
      log_add proof [||];
      raise Unsat_at_level0
    | 1 -> ()
    | _ ->
      enqueue s lits.(0) reason_none;
      confirm_level0 s ~proof)
  | 2 -> add_binary s lits.(0) lits.(1)
  | _ -> ignore (add_long s lits true (max 1 lbd))

(* Failed-literal probing: assume a candidate literal at a pseudo
   decision level and propagate; a conflict means its negation is
   implied at level 0.  The derived unit is RUP (negating it reruns
   the very propagation that conflicted), so it is logged as an
   addition. *)
let probe_pass s ~proof ~limit =
  let n = s.nvars in
  if n > 0 then begin
    let probes = ref 0 and scanned = ref 0 in
    let cursor = ref s.inproc_head in
    let probe_lit l =
      incr probes;
      s.st_probed <- s.st_probed + 1;
      push_pseudo_level s;
      enqueue s l reason_none;
      match propagate s with
      | None -> cancel_until s 0
      | Some _ ->
        cancel_until s 0;
        log_add proof [| neg l |];
        enqueue s (neg l) reason_none;
        confirm_level0 s ~proof
    in
    while !probes < limit && !scanned < n do
      let v = !cursor mod n in
      incr cursor;
      incr scanned;
      if var_value s v = undef then probe_lit (lit_of_var v false);
      if var_value s v = undef && !probes < limit then
        probe_lit (lit_of_var v true)
    done;
    s.inproc_head <- !cursor mod n
  end

(* Learnt-clause vivification: walk the clause, assuming the negation
   of each still-unassigned literal.  A conflict or a satisfied
   literal mid-way truncates the clause to the scanned prefix; a
   falsified literal is dropped.  The shrunk clause is RUP against the
   database that still contains the original — unit propagation
   re-derives the same conflict — so it is added before the original
   is deleted. *)
let vivify_clause s ~proof c =
  let k = clause_size s c in
  let lits = clause_lits s c in
  let lbd = clause_lbd s c in
  push_pseudo_level s;
  let kept = ref [] and nkept = ref 0 in
  let stopped = ref false in
  let i = ref 0 in
  while (not !stopped) && !i < k do
    let l = lits.(!i) in
    (match lit_value s l with
     | 1 ->
       kept := l :: !kept;
       incr nkept;
       stopped := true
     | 0 -> () (* implied false under the assumed prefix: drop *)
     | _ ->
       kept := l :: !kept;
       incr nkept;
       if !i < k - 1 then begin
         (* assuming the last literal cannot shorten anything *)
         enqueue s (neg l) reason_none;
         if propagate s <> None then stopped := true
       end);
    incr i
  done;
  cancel_until s 0;
  if !nkept < k then begin
    s.st_vivified <- s.st_vivified + 1;
    if List.exists (fun l -> lit_value s l = 1) !kept then
      (* satisfied at level 0: the clause is garbage *)
      delete_long s ~proof c
    else begin
      let arr =
        Array.of_list
          (List.filter (fun l -> lit_value s l <> 0) (List.rev !kept))
      in
      log_add proof arr;
      delete_long s ~proof c;
      attach_shrunk s ~proof arr (min lbd (max 1 (Array.length arr - 1)))
    end;
    true
  end
  else false

let vivify_pass s ~proof ~limit =
  let lv = s.learnts in
  let hi = lv.size - 1 in
  let lo = max 0 (lv.size - limit) in
  let changed = ref false in
  for i = lo to hi do
    let c = lv.data.(i) in
    if s.arena.(c) land hdr_deleted = 0 && not (is_reason s c) then
      if vivify_clause s ~proof c then changed := true
  done;
  !changed

let sorted_lits s c =
  let a = clause_lits s c in
  Array.sort compare a;
  a

(* Does [a] subsume [b] (subset), or self-subsume it (subset after
   flipping exactly one literal)?  Sorted internal-literal arrays; the
   two literals of a variable are the adjacent ints 2v and 2v+1, and
   no clause contains both (tautologies never enter the database). *)
let subsume_check a b =
  let la = Array.length a and lb = Array.length b in
  if la > lb then `No
  else begin
    let flips = ref 0 and fliplit = ref 0 in
    let j = ref 0 and ok = ref true and i = ref 0 in
    while !ok && !i < la do
      let x = a.(!i) in
      let base = x land lnot 1 in
      while !j < lb && b.(!j) < base do
        incr j
      done;
      if !j >= lb then ok := false
      else if b.(!j) = x then incr j
      else if b.(!j) = x lxor 1 then
        if !flips > 0 then ok := false
        else begin
          incr flips;
          fliplit := x lxor 1;
          incr j
        end
      else ok := false;
      incr i
    done;
    if not !ok then `No
    else if !flips = 0 then `Subsumed
    else `Strengthen !fliplit
  end

(* Pairwise subsumption / self-subsuming strengthening over a window
   of the most recent long learnt clauses.  [`Strengthen l] removes
   [l] from the victim: the shrunk clause is RUP while both the
   subsumer and the victim are present, so it is added first. *)
let subsume_pass s ~proof ~window =
  let lv = s.learnts in
  let n = min window lv.size in
  let lo = lv.size - n in
  let hi = lv.size - 1 in
  let changed = ref false in
  let live c = s.arena.(c) land hdr_deleted = 0 in
  for ia = lo to hi do
    let a = lv.data.(ia) in
    if live a then begin
      let sa = sorted_lits s a in
      for ib = lo to hi do
        let b = lv.data.(ib) in
        if ib <> ia && live a && live b && not (is_reason s b) then
          match subsume_check sa (sorted_lits s b) with
          | `No -> ()
          | `Subsumed ->
            delete_long s ~proof b;
            s.st_inproc_subsumed <- s.st_inproc_subsumed + 1;
            changed := true
          | `Strengthen l ->
            let shrunk =
              Array.of_list
                (List.filter
                   (fun x -> x <> l)
                   (Array.to_list (clause_lits s b)))
            in
            s.st_inproc_subsumed <- s.st_inproc_subsumed + 1;
            changed := true;
            if Array.exists (fun x -> lit_value s x = 1) shrunk then
              (* satisfied at level 0: drop the victim outright *)
              delete_long s ~proof b
            else begin
              let arr =
                Array.of_list
                  (List.filter
                     (fun x -> lit_value s x <> 0)
                     (Array.to_list shrunk))
              in
              let lbd = min (clause_lbd s b) (max 1 (Array.length arr - 1)) in
              log_add proof arr;
              delete_long s ~proof b;
              attach_shrunk s ~proof arr lbd
            end
      done
    end
  done;
  !changed

(* One inprocessing pass, at decision level 0 (restart boundary).
   Deletions leave marked clauses behind, so the pass ends with an
   arena compaction whenever anything was removed — [arena_gc] also
   filters the learnt index and relocates level-0 trail reasons. *)
let inprocess_pass s ~proof cfg =
  probe_pass s ~proof ~limit:cfg.probe_limit;
  let v = vivify_pass s ~proof ~limit:cfg.vivify_limit in
  let b = subsume_pass s ~proof ~window:cfg.subsume_window in
  if v || b then arena_gc s

(* --- search engine -------------------------------------------------- *)

(* Luby restart sequence: 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 ... *)
let rec luby_simple i =
  let rec find k = if (1 lsl k) - 1 >= i + 1 then k else find (k + 1) in
  let k = find 1 in
  if (1 lsl k) - 1 = i + 1 then 1 lsl (k - 1)
  else luby_simple (i + 1 - (1 lsl (k - 1)))

type search_outcome =
  | S_sat of bool array
  | S_unsat_final  (* conflict at level 0: unsatisfiable outright *)
  | S_unsat_assumptions of int array  (* DIMACS assumption core *)
  | S_unknown

(* The CDCL main loop shared by [solve] and [Incremental.solve].
   Assumptions (internal literals) are placed as pseudo-decisions on
   the first decision levels; learned units always backjump to level 0
   (assumptions are re-placed afterwards), so a reasonless assignment
   above level 0 during assumption placement is always an assumption.

   [t0] is a {e wall-clock} origin ({!Wall.now}): with several domains
   racing, process CPU time advances N times faster than real time, so
   [max_seconds] must be measured against the wall.

   [reduce_base]/[reduce_inc] set the initial learnt-database cap and
   its growth per reduction (defaults preserve the historical 2000/512
   schedule; tests shrink them to force many arena compactions).

   [interrupt] is probed on every budget tick; [export] is called (in
   DIMACS literals) for every learned clause whose LBD is at most
   [export_lbd], after the clause has been logged to [proof]; [import]
   is polled at every restart (and once on entry), at decision level 0,
   and its clauses join the learnt database. *)
let search s ~limits ~proof ~restarts ~reduce_base ~reduce_inc ~inprocess
    ~assumption_lits ~on_learnt ~interrupt ~export ~export_lbd ~import ~t0 =
  let nassum = Array.length assumption_lits in
  let since_inproc = ref 0 in
  let conflicts_since_restart = ref 0 in
  let restart_num = ref 0 in
  let restart_limit = ref (100 * luby_simple 0) in
  let reduce_limit = ref (reduce_base + s.learnts.size) in
  (* Glucose: moving average of the last 50 LBDs vs the global mean. *)
  let win = Array.make 50 0 in
  let win_size = ref 0 and win_pos = ref 0 and win_sum = ref 0 in
  let lbd_total = ref 0 and lbd_count = ref 0 in
  let note_lbd lbd =
    lbd_total := !lbd_total + lbd;
    incr lbd_count;
    if !win_size >= 50 then win_sum := !win_sum - win.(!win_pos)
    else incr win_size;
    win_sum := !win_sum + lbd;
    win.(!win_pos) <- lbd;
    win_pos := (!win_pos + 1) mod 50
  in
  let want_restart () =
    match restarts with
    | `Luby -> !conflicts_since_restart >= !restart_limit
    | `Glucose ->
      !conflicts_since_restart >= 50
      && !win_size >= 50
      && float_of_int !win_sum *. 0.8 /. 50.0
         > float_of_int !lbd_total /. float_of_int (max 1 !lbd_count)
  in
  let exception Out of search_outcome in
  (* Attach a clause shared by another portfolio worker.  Runs at
     decision level 0 only; the clause was learned from (a CNF
     equisatisfiable derivation of) the same formula, so it joins the
     learnt database like any locally derived clause.  It is NOT logged
     to [proof]: the exporting worker already logged it into the shared
     recorder before publishing (see {!Proof}). *)
  let import_clause (clause, lbd) =
    if Array.for_all (fun l -> l <> 0 && abs l <= s.nvars) clause then begin
      let lits =
        Array.to_list clause
        |> List.map (fun l -> lit_of_var (abs l - 1) (l < 0))
        |> List.sort_uniq compare
      in
      let taut =
        let rec chk = function
          | a :: (b :: _ as rest) -> a lxor b = 1 || chk rest
          | _ -> false
        in
        chk lits
      in
      if (not taut) && not (List.exists (fun l -> lit_value s l = 1) lits)
      then
        match List.filter (fun l -> lit_value s l <> 0) lits with
        | [] ->
          (* Falsified under the level-0 assignment: refuted. *)
          log_add proof [||];
          raise (Out S_unsat_final)
        | [ l ] -> enqueue s l reason_none
        | [ a; b ] ->
          add_binary s a b;
          s.st_learned <- s.st_learned + 1
        | lits -> ignore (add_long s (Array.of_list lits) true (max 1 lbd))
    end
  in
  let do_import () =
    match import with
    | None -> ()
    | Some f -> List.iter import_clause (f ())
  in
  let do_restart () =
    conflicts_since_restart := 0;
    (match restarts with
     | `Luby ->
       incr restart_num;
       restart_limit := 100 * luby_simple !restart_num
     | `Glucose ->
       win_size := 0;
       win_pos := 0;
       win_sum := 0);
    s.st_restarts <- s.st_restarts + 1;
    cancel_until s 0;
    do_import ();
    match inprocess with
    | None -> ()
    | Some cfg ->
      incr since_inproc;
      if !since_inproc >= cfg.inproc_interval then begin
        since_inproc := 0;
        inprocess_pass s ~proof cfg
      end
  in
  (* The wall-clock check is gated on a counter that advances on every
     budget probe (one per conflict or decision), never on the conflict
     count alone — a decision-heavy run must still honor
     [max_seconds].  The interrupt flag is probed on every tick so a
     portfolio loser stops within one conflict/decision of the race
     being decided. *)
  let budget_ticks = ref 0 in
  let out_of_budget () =
    incr budget_ticks;
    (match interrupt with
     | Some i when Interrupt.is_set i -> true
     | _ -> false)
    || (match limits.max_conflicts with
        | Some m when s.st_conflicts >= m -> true
        | _ -> false)
    || (match limits.max_decisions with
        | Some m when s.st_decisions >= m -> true
        | _ -> false)
    || (match limits.max_seconds with
        | Some m when !budget_ticks land 255 = 0 -> Wall.now () -. t0 > m
        | _ -> false)
    ||
    (* Absolute wall-clock deadline (the solve service's per-job
       budget): unlike [max_seconds] it does not restart at solve
       entry, so a portfolio lane that begins late — after a queued
       wait or an expensive preparation — still stops at the same
       instant as its siblings. *)
    match limits.deadline with
    | Some d when !budget_ticks land 255 = 255 -> Wall.now () > d
    | _ -> false
  in
  try
    do_import ();
    while true do
      match propagate s with
      | Some confl ->
        s.st_conflicts <- s.st_conflicts + 1;
        incr conflicts_since_restart;
        if decision_level s = 0 then begin
          log_add proof [||];
          raise (Out S_unsat_final)
        end;
        let lits, blevel, lbd = analyze s confl in
        (match on_learnt with None -> () | Some f -> f lits lbd);
        note_lbd lbd;
        log_add proof lits;
        (* Export after logging: the shared-proof invariant is that a
           clause reaches the recorder before any other worker can
           import it.  The exported array is freshly mapped, never a
           view into the arena. *)
        (match export with
         | Some f when lbd <= export_lbd ->
           f (Array.map dimacs_of_lit lits) lbd
         | _ -> ());
        cancel_until s blevel;
        (match Array.length lits with
         | 1 -> enqueue s lits.(0) reason_none
         | 2 ->
           add_binary s lits.(0) lits.(1);
           s.st_learned <- s.st_learned + 1;
           enqueue s lits.(0) (reason_binary lits.(1))
         | _ ->
           let c = add_long s lits true lbd in
           enqueue s lits.(0) c);
        decay_activities s;
        if out_of_budget () then raise (Out S_unknown)
      | None ->
        if want_restart () then do_restart ()
        else if decision_level s < nassum then begin
          (* Place the next assumption as a pseudo-decision. *)
          let p = assumption_lits.(decision_level s) in
          match lit_value s p with
          | 1 ->
            (* Already true: open an empty pseudo-decision level. *)
            s.trail_lim.(s.ntrail_lim) <- s.trail_size;
            s.ntrail_lim <- s.ntrail_lim + 1
          | 0 -> raise (Out (S_unsat_assumptions (analyze_final s p)))
          | _ ->
            s.trail_lim.(s.ntrail_lim) <- s.trail_size;
            s.ntrail_lim <- s.ntrail_lim + 1;
            enqueue s p reason_none
        end
        else begin
          if s.learnts.size >= !reduce_limit then begin
            reduce_db ?proof s;
            reduce_limit := !reduce_limit + reduce_inc
          end;
          (* Pick a branching variable. *)
          let v = ref (-1) in
          while !v < 0 && s.heap_size > 0 do
            let cand = heap_pop s in
            if var_value s cand = undef then v := cand
          done;
          if !v < 0 then begin
            (* All variables assigned: model found. *)
            let model = Array.init s.nvars (fun v -> var_value s v = 1) in
            raise (Out (S_sat model))
          end;
          s.st_decisions <- s.st_decisions + 1;
          s.trail_lim.(s.ntrail_lim) <- s.trail_size;
          s.ntrail_lim <- s.ntrail_lim + 1;
          s.st_max_level <- max s.st_max_level s.ntrail_lim;
          enqueue s (lit_of_var !v (not s.polarity.(!v))) reason_none;
          if out_of_budget () then raise (Out S_unknown)
        end
    done;
    assert false
  with
  | Out r -> r
  | Unsat_at_level0 -> S_unsat_final

(* --- top level ------------------------------------------------------ *)

type prepared = Ready of t * int list (* units *) | Trivially_unsat

(* Load a flat CSR store ({!Cnf.Flat}) into a fresh solver: each clause
   is normalized (internal encoding, sort + dedupe, tautology drop) in
   one reusable scratch buffer, and long clauses are blitted straight
   into the arena via [add_long_slice] — zero allocation per clause.
   Every entry point that solves a whole formula loads through here.
   With [gauss], each normalized clause is also offered to that XOR
   collector, straight from the scratch buffer. *)
let prepare ?gauss (fl : Cnf.Flat.t) =
  let nvars = fl.Cnf.Flat.num_vars in
  let s = create nvars in
  let units = ref [] in
  let ok = ref true in
  let offsets = fl.Cnf.Flat.offsets in
  let lits = fl.Cnf.Flat.lits in
  let nc = Array.length offsets - 1 in
  let buf = ref (Array.make 64 0) in
  let i = ref 0 in
  while !ok && !i < nc do
    let st = offsets.(!i) and en = offsets.(!i + 1) in
    let len = en - st in
    if Array.length !buf < len then
      buf := Array.make (max len (2 * Array.length !buf)) 0;
    let b = !buf in
    (* Sorted-insert each literal, skipping duplicates: clauses are
       short, and the result matches [List.sort_uniq compare]. *)
    let n = ref 0 in
    for k = st to en - 1 do
      let dl = Array.unsafe_get lits k in
      let l = lit_of_var (abs dl - 1) (dl < 0) in
      let j = ref !n in
      while !j > 0 && Array.unsafe_get b (!j - 1) > l do
        Array.unsafe_set b !j (Array.unsafe_get b (!j - 1));
        decr j
      done;
      if !j > 0 && Array.unsafe_get b (!j - 1) = l then begin
        let k' = ref !j in
        while !k' < !n do
          Array.unsafe_set b !k' (Array.unsafe_get b (!k' + 1));
          incr k'
        done
      end
      else begin
        Array.unsafe_set b !j l;
        incr n
      end
    done;
    let n = !n in
    let taut =
      let rec chk j = j + 1 < n && (b.(j) lxor b.(j + 1) = 1 || chk (j + 1)) in
      chk 0
    in
    if not taut then begin
      (match gauss with
       | Some g when n <= Gauss.max_width -> Gauss.add g b n
       | _ -> ());
      match n with
      | 0 -> ok := false
      | 1 -> units := b.(0) :: !units
      | 2 -> add_binary s b.(0) b.(1)
      | _ -> ignore (add_long_slice s b n false 0)
    end;
    incr i
  done;
  if !ok then Ready (s, !units) else Trivially_unsat

(* --- warm-start snapshots ------------------------------------------ *)

type seed = {
  seed_clauses : (int array * int) array;
  seed_phases : bool array;
  seed_order : int array;
}

(* Capture policy: the snapshot is bounded — at most
   [snapshot_max_clauses] long learnt clauses, preferring the lowest
   LBDs (the threshold is tightened until the budget fits) while
   keeping learn order, plus every level-0 trail literal as a unit
   clause.  Learnt binaries live in the watch lists unindexed and are
   not captured. *)
let snapshot_max_lbd = 6
let snapshot_max_clauses = 4096

let capture_seed s =
  let seed_phases = Array.init s.nvars (fun v -> s.polarity.(v)) in
  let seed_order = Array.init s.nvars (fun v -> v) in
  Array.sort
    (fun a b ->
      let c = compare s.var_activity.(b) s.var_activity.(a) in
      if c <> 0 then c else compare a b)
    seed_order;
  let units = ref [] in
  for i = s.trail_size - 1 downto 0 do
    let l = s.trail.(i) in
    if s.level.(var l) = 0 then
      units := ([| dimacs_of_lit l |], 1) :: !units
  done;
  let counts = Array.make (snapshot_max_lbd + 1) 0 in
  for i = 0 to s.learnts.size - 1 do
    let c = s.learnts.data.(i) in
    if s.arena.(c) land hdr_deleted = 0 then begin
      let lbd = clause_lbd s c in
      if lbd <= snapshot_max_lbd then counts.(lbd) <- counts.(lbd) + 1
    end
  done;
  let cap_lbd = ref snapshot_max_lbd in
  let total = ref (Array.fold_left ( + ) 0 counts) in
  while !total > snapshot_max_clauses && !cap_lbd > 1 do
    total := !total - counts.(!cap_lbd);
    decr cap_lbd
  done;
  let taken = ref 0 in
  let acc = ref [] in
  for i = 0 to s.learnts.size - 1 do
    let c = s.learnts.data.(i) in
    if !taken < snapshot_max_clauses && s.arena.(c) land hdr_deleted = 0
    then begin
      let lbd = clause_lbd s c in
      if lbd <= !cap_lbd then begin
        acc := (Array.map dimacs_of_lit (clause_lits s c), max 1 lbd) :: !acc;
        incr taken
      end
    end
  done;
  { seed_clauses = Array.of_list (!units @ List.rev !acc);
    seed_phases; seed_order }

(* Saved phases and the activity order are pure heuristics: phases are
   copied in, and activities get a decreasing ramp in (0, 1] so the
   donor's branching order survives until live bumps take over. *)
let apply_seed_heuristics s sd =
  let n = min (Array.length sd.seed_phases) s.nvars in
  for v = 0 to n - 1 do
    s.polarity.(v) <- sd.seed_phases.(v)
  done;
  let m = Array.length sd.seed_order in
  let denom = float_of_int (max 1 m) in
  Array.iteri
    (fun rank v ->
      if v >= 0 && v < s.nvars then
        s.var_activity.(v) <- float_of_int (m - rank) /. denom)
    sd.seed_order

(* Attach one snapshot clause at decision level 0, with the same
   normalization as a portfolio import.  Seed clauses are trusted to be
   implied by the formula (the warm cache keys snapshots by canonical
   fingerprint, and equal fingerprints mean equal model sets) — except
   when a DRAT [proof] is being recorded: then [rup_only] admits a
   clause only if it is RUP against the current database, logging it
   before attaching, so the proof stays checkable end to end; the rest
   are silently dropped and the search re-derives what it needs. *)
let seed_clause s ~proof ~rup_only (clause, lbd) =
  if Array.for_all (fun l -> l <> 0 && abs l <= s.nvars) clause then begin
    let lits =
      Array.to_list clause
      |> List.map (fun l -> lit_of_var (abs l - 1) (l < 0))
      |> List.sort_uniq compare
    in
    let taut =
      let rec chk = function
        | a :: (b :: _ as rest) -> a lxor b = 1 || chk rest
        | _ -> false
      in
      chk lits
    in
    if (not taut) && not (List.exists (fun l -> lit_value s l = 1) lits)
    then begin
      let lits = List.filter (fun l -> lit_value s l <> 0) lits in
      if not rup_only then
        match lits with
        | [] ->
          (* Falsified under the level-0 assignment: refuted.  [proof]
             is [None] on this path, so no logging is needed. *)
          raise Unsat_at_level0
        | [ l ] ->
          enqueue s l reason_none;
          confirm_level0 s ~proof
        | [ a; b ] ->
          add_binary s a b;
          s.st_learned <- s.st_learned + 1
        | lits -> ignore (add_long s (Array.of_list lits) true (max 1 lbd))
      else
        match lits with
        | [] -> ()
        | lits ->
          (* RUP probe: assume the negations on a pseudo level and
             propagate; a conflict certifies the clause. *)
          push_pseudo_level s;
          List.iter
            (fun l ->
              if lit_value s l = undef then enqueue s (neg l) reason_none)
            lits;
          let conflict = propagate s <> None in
          cancel_until s 0;
          if conflict then begin
            let arr = Array.of_list lits in
            log_add proof arr;
            match Array.length arr with
            | 1 ->
              enqueue s arr.(0) reason_none;
              confirm_level0 s ~proof
            | 2 ->
              add_binary s arr.(0) arr.(1);
              s.st_learned <- s.st_learned + 1
            | _ -> ignore (add_long s arr true (max 1 lbd))
          end
    end
  end

let make_stats s ~wall ~cpu ~minor_words ~major_collections =
  {
    decisions = s.st_decisions;
    conflicts = s.st_conflicts;
    propagations = s.st_props;
    restarts = s.st_restarts;
    learned = s.st_learned;
    reduces = s.st_reduces;
    probed = s.st_probed;
    vivified = s.st_vivified;
    inproc_subsumed = s.st_inproc_subsumed;
    xors = 0;
    xor_derived = 0;
    max_decision_level = s.st_max_level;
    time = wall;
    cpu_time = cpu;
    minor_words;
    major_collections;
  }

(* Allocation telemetry: deltas of the GC counters across the call, so
   the arena's effect on minor-heap churn is measured, not asserted.
   [Gc.minor_words] is a cheap counter read; [Gc.quick_stat] runs twice
   per solve. *)
let gc_origin () = (Gc.minor_words (), (Gc.quick_stat ()).Gc.major_collections)

let gc_deltas (mw0, mc0) =
  (Gc.minor_words () -. mw0, (Gc.quick_stat ()).Gc.major_collections - mc0)

(* Level-0 XOR reasoning ({!Gauss}) over the collector [prepare] fed:
   the derived binary equivalences are attached, and the result is
   [units] with the derived units in front, and the number of clauses
   added.  An inconsistent system refutes the formula. *)
let add_xor_consequences s g units =
  match Gauss.eliminate g with
  | Gauss.Inconsistent -> raise Unsat_at_level0
  | Gauss.Derived clauses ->
    let lit l = lit_of_var (abs l - 1) (l < 0) in
    ( List.fold_left
        (fun units c ->
          if Array.length c = 1 then lit c.(0) :: units
          else begin
            add_binary s (lit c.(0)) (lit c.(1));
            units
          end)
        units clauses,
      List.length clauses )

let solve_core ~limits ~proof ~heuristic ~restarts ~reduce_base ~reduce_inc
    ~inprocess ~on_learnt ~interrupt ~export ~export_lbd ~import ~seed
    ~snapshot flat =
  let t0 = Wall.now () in
  let c0 = Sys.time () in
  let gc0 = gc_origin () in
  (* The XOR pass's counters live here rather than in [t]: the solver
     record, and the machine code laid out before [search], stay as
     they are without the pass. *)
  let xors = ref 0 and xor_derived = ref 0 in
  let stats_of s =
    let minor_words, major_collections = gc_deltas gc0 in
    { (make_stats s ~wall:(Wall.now () -. t0) ~cpu:(Sys.time () -. c0)
         ~minor_words ~major_collections)
      with xors = !xors; xor_derived = !xor_derived }
  in
  let fl = flat () in
  (* Without a proof only: a GF(2) sum is not a RUP step. *)
  let gauss =
    if proof = None then Some (Gauss.local (Cnf.Flat.num_clauses fl))
    else None
  in
  match prepare ?gauss fl with
  | Trivially_unsat ->
    log_add proof [||];
    (Unsat, stats_of (create 0))
  | Ready (s, units) ->
    s.lrb <- (heuristic = `Lrb);
    (* The snapshot is taken on every exit — Sat, Unsat, Unknown — so
       an interrupted or deadline-cut solve still donates its learnt
       clauses, phases and activity order to a later warm start. *)
    let finish r =
      (match snapshot with None -> () | Some f -> f (capture_seed s));
      (r, stats_of s)
    in
    let exception Done of result in
    (try
       let units =
         match gauss with
         | None -> units
         | Some g ->
           xors := Gauss.count g;
           let units, n = add_xor_consequences s g units in
           xor_derived := n;
           units
       in
       (* Level-0 units. *)
       List.iter
         (fun l ->
           match lit_value s l with
           | 1 -> ()
           | 0 ->
             log_add proof [||];
             raise (Done Unsat)
           | _ -> enqueue s l reason_none)
         units;
       if propagate s <> None then begin
         log_add proof [||];
         raise (Done Unsat)
       end;
       (match seed with
        | None -> ()
        | Some sd ->
          apply_seed_heuristics s sd;
          let rup_only = proof <> None in
          Array.iter (seed_clause s ~proof ~rup_only) sd.seed_clauses;
          confirm_level0 s ~proof);
       for v = 0 to s.nvars - 1 do
         if var_value s v = undef then heap_insert s v
       done;
       let r =
         match
           search s ~limits ~proof ~restarts ~reduce_base ~reduce_inc
             ~inprocess ~assumption_lits:[||] ~on_learnt ~interrupt ~export
             ~export_lbd ~import ~t0
         with
         | S_sat m -> Sat m
         | S_unsat_final -> Unsat
         | S_unsat_assumptions _ -> assert false
         | S_unknown -> Unknown
       in
       raise (Done r)
     with
     | Done r -> finish r
     | Unsat_at_level0 -> finish Unsat)

let solve ?(limits = no_limits) ?proof ?(heuristic = `Evsids)
    ?(restarts = `Luby) ?(reduce_base = 2000) ?(reduce_inc = 512) ?inprocess
    ?on_learnt ?interrupt ?export ?(export_lbd = max_int) ?import ?seed
    ?snapshot f =
  solve_core ~limits ~proof ~heuristic ~restarts ~reduce_base ~reduce_inc
    ~inprocess ~on_learnt ~interrupt ~export ~export_lbd ~import ~seed
    ~snapshot (fun () -> Cnf.Flat.of_formula f)

let solve_flat ?(limits = no_limits) ?proof ?(heuristic = `Evsids)
    ?(restarts = `Luby) ?(reduce_base = 2000) ?(reduce_inc = 512) ?inprocess
    ?on_learnt ?interrupt ?export ?(export_lbd = max_int) ?import ?seed
    ?snapshot fl =
  solve_core ~limits ~proof ~heuristic ~restarts ~reduce_base ~reduce_inc
    ~inprocess ~on_learnt ~interrupt ~export ~export_lbd ~import ~seed
    ~snapshot (fun () -> fl)

let decisions_or_max ?(limits = no_limits) f =
  let result, st = solve ~limits f in
  match (result, limits.max_decisions) with
  | Unknown, Some m -> max st.decisions m
  | _ -> st.decisions

let pp_stats ppf st =
  Format.fprintf ppf
    "decisions=%d conflicts=%d propagations=%d restarts=%d learned=%d \
     reduces=%d probed=%d vivified=%d inproc_subsumed=%d xors=%d \
     xor_derived=%d time=%.3fs cpu=%.3fs minor_words=%.0f major_gcs=%d"
    st.decisions st.conflicts st.propagations st.restarts st.learned
    st.reduces st.probed st.vivified st.inproc_subsumed st.xors
    st.xor_derived st.time st.cpu_time
    st.minor_words st.major_collections

(* ------------------------------------------------------------------ *)
(* Incremental interface *)

module Incremental = struct
  type session = {
    s : t;
    mutable broken : bool;
    mutable core : int array; (* DIMACS assumption core of the last
                                 Unsat-under-assumptions answer *)
  }

  let ensure_capacity session n =
    let s = session.s in
    if n > s.nvars then begin
      check_num_vars n;
      let cap = Array.length s.level in
      if n > cap then begin
        let cap' = min max_vars (max n (2 * max 1 cap)) in
        let vals = Bytes.make (2 * cap') undef_byte in
        Bytes.blit s.vals 0 vals 0 (Bytes.length s.vals);
        s.vals <- vals;
        s.level <- grow_array s.level cap' 0;
        s.reason <- grow_array s.reason cap' reason_none;
        s.trail <- grow_array s.trail cap' 0;
        s.trail_lim <- grow_array s.trail_lim cap' 0;
        s.var_activity <- grow_array s.var_activity cap' 0.0;
        s.heap <- grow_array s.heap cap' 0;
        s.heap_pos <- grow_array s.heap_pos cap' (-1);
        s.polarity <- grow_array s.polarity cap' false;
        s.seen <- grow_array s.seen cap' false;
        s.assigned_at <- grow_array s.assigned_at cap' 0;
        s.participated <- grow_array s.participated cap' 0;
        s.watches <-
          Array.init (2 * cap') (fun i ->
              if i < Array.length s.watches then s.watches.(i)
              else wl_create ());
        s.bin_watches <-
          Array.init (2 * cap') (fun i ->
              if i < Array.length s.bin_watches then s.bin_watches.(i)
              else vec_create 0)
      end;
      s.nvars <- n
    end

  let create () = { s = create 0; broken = false; core = [||] }

  (* A fresh copy: the stored core is solver-internal state and must
     not be mutable by the caller (see the aliasing regression tests). *)
  let last_core session = Array.copy session.core

  let num_vars session = session.s.nvars

  let new_var session =
    ensure_capacity session (session.s.nvars + 1);
    session.s.nvars

  (* Add a clause in DIMACS literals at decision level 0. *)
  let add_clause session clause =
    let s = session.s in
    if not session.broken then begin
      assert (s.ntrail_lim = 0);
      Array.iter (fun l -> ensure_capacity session (abs l)) clause;
      let lits =
        Array.to_list clause
        |> List.map (fun l -> lit_of_var (abs l - 1) (l < 0))
        |> List.sort_uniq compare
      in
      let taut =
        let rec chk = function
          | a :: (b :: _ as rest) -> a lxor b = 1 || chk rest
          | _ -> false
        in
        chk lits
      in
      if not taut then begin
        (* Evaluate under the level-0 assignment. *)
        let lits = List.filter (fun l -> lit_value s l <> 0) lits in
        if List.exists (fun l -> lit_value s l = 1) lits then ()
        else
          match lits with
          | [] -> session.broken <- true
          | [ l ] ->
            enqueue s l reason_none;
            if propagate s <> None then session.broken <- true
          | [ a; b ] -> add_binary s a b
          | lits -> ignore (add_long s (Array.of_list lits) false 0)
      end
    end

  let add_formula session f =
    Array.iter (add_clause session) f.Cnf.Formula.clauses

  let solve ?(limits = no_limits) ?proof ?(heuristic = `Evsids)
      ?(restarts = `Luby) ?(reduce_base = 2000) ?(reduce_inc = 512) ?inprocess
      ?interrupt ?(assumptions = [||]) session =
    let t0 = Wall.now () in
    let c0 = Sys.time () in
    let gc0 = gc_origin () in
    let s = session.s in
    s.lrb <- (heuristic = `Lrb);
    let assumption_lits =
      Array.map
        (fun l ->
          ensure_capacity session (abs l);
          lit_of_var (abs l - 1) (l < 0))
        assumptions
    in
    (* Assumption levels can be empty, so decision levels may exceed
       the variable count; give the level stack headroom. *)
    let needed = s.nvars + Array.length assumption_lits + 1 in
    if Array.length s.trail_lim < needed then
      s.trail_lim <- grow_array s.trail_lim needed 0;
    let finish r =
      cancel_until s 0;
      let minor_words, major_collections = gc_deltas gc0 in
      ( r,
        make_stats s ~wall:(Wall.now () -. t0) ~cpu:(Sys.time () -. c0)
          ~minor_words ~major_collections )
    in
    session.core <- [||];
    (* A recorder sealed by an earlier refutation (its empty clause is
       already logged) must not absorb steps from a later solve on a
       reused session: disable logging for this call explicitly by
       dropping the recorder, instead of relying on every log site to
       probe the seal.  The broken path below keeps its recorder — its
       re-seal of an already-sealed log is a documented no-op. *)
    let proof =
      match proof with
      | Some p when Proof.sealed p && not session.broken -> None
      | p -> p
    in
    if session.broken then begin
      (* The contradiction arose from level-0 unit propagation over the
         accumulated clauses (in {!add_clause} or an earlier call), so
         the empty clause is RUP here; sealing keeps the log checkable
         even when the breaking step predates this call.  A second seal
         of an already-sealed recorder is a no-op. *)
      log_add proof [||];
      finish Unsat
    end
    else if propagate s <> None then begin
      session.broken <- true;
      log_add proof [||];
      finish Unsat
    end
    else begin
      for v = 0 to s.nvars - 1 do
        if var_value s v = undef then heap_insert s v
      done;
      match
        search s ~limits ~proof ~restarts ~reduce_base ~reduce_inc ~inprocess
          ~assumption_lits ~on_learnt:None ~interrupt ~export:None
          ~export_lbd:max_int ~import:None ~t0
      with
      | S_sat m -> finish (Sat m)
      | S_unknown -> finish Unknown
      | S_unsat_final ->
        session.broken <- true;
        finish Unsat
      | S_unsat_assumptions core ->
        session.core <- core;
        finish Unsat
    end
end

(* ------------------------------------------------------------------ *)
(* Cube-and-conquer surface: lookahead probing and assumption jobs *)

type prober = { ps : t; order : int array }

let prober f =
  let fl = Cnf.Flat.of_formula f in
  match prepare fl with
  | Trivially_unsat -> `Unsat
  | Ready (s, units) -> (
    try
      List.iter
        (fun l ->
          match lit_value s l with
          | 1 -> ()
          | 0 -> raise Unsat_at_level0
          | _ -> enqueue s l reason_none)
        units;
      if propagate s <> None then raise Unsat_at_level0;
      (* Candidates most-occurring-first, ties on the variable index,
         so the order — and every split derived from it — is
         deterministic for a given formula. *)
      let occ = Array.make (max 1 s.nvars) 0 in
      Array.iter
        (fun l ->
          let v = abs l - 1 in
          if v >= 0 && v < s.nvars then occ.(v) <- occ.(v) + 1)
        fl.Cnf.Flat.lits;
      let order = Array.init s.nvars (fun v -> v) in
      Array.sort
        (fun a b ->
          if occ.(a) <> occ.(b) then compare occ.(b) occ.(a)
          else compare a b)
        order;
      `Prober { ps = s; order }
    with Unsat_at_level0 -> `Unsat)

exception Probe_dead
exception Probe_model of bool array

let probe_split p ~prefix ~limit =
  let s = p.ps in
  let limit = max 1 limit in
  cancel_until s 0;
  let model () = Array.init s.nvars (fun v -> var_value s v = 1) in
  try
    (* Place the cube prefix on pseudo decision levels, propagating
       after each literal.  A falsified literal or a conflict refutes
       the prefix by unit propagation alone — [¬prefix] is RUP against
       the original formula. *)
    Array.iter
      (fun dl ->
        let v = abs dl - 1 in
        if v < 0 || v >= s.nvars then
          invalid_arg "Solver.probe_split: literal out of range";
        let l = lit_of_var v (dl < 0) in
        match lit_value s l with
        | 1 -> ()
        | 0 -> raise Probe_dead
        | _ ->
          push_pseudo_level s;
          enqueue s l reason_none;
          if propagate s <> None then raise Probe_dead)
      prefix;
    if s.trail_size >= s.nvars then raise (Probe_model (model ()));
    let plevel = decision_level s in
    let base = s.trail_size in
    let best = ref (-1) and best_score = ref min_int in
    let probed = ref 0 and i = ref 0 in
    let n = Array.length p.order in
    while !probed < limit && !i < n do
      let v = p.order.(!i) in
      incr i;
      if var_value s v = undef then begin
        incr probed;
        (* Propagation lookahead on both phases: the trail growth is
           the clause-reduction proxy; a conflicting phase means the
           split hands one child a free UP refutation. *)
        let gain sign =
          push_pseudo_level s;
          enqueue s (lit_of_var v sign) reason_none;
          let g =
            match propagate s with
            | Some _ -> -1
            | None ->
              if s.trail_size >= s.nvars then raise (Probe_model (model ()));
              s.trail_size - base
          in
          cancel_until s plevel;
          g
        in
        let gp = gain false in
        let gn = gain true in
        let score =
          if gp < 0 && gn < 0 then max_int
          else if gp < 0 || gn < 0 then max_int - 1
          else (gp * gn * 64) + gp + gn
        in
        if score > !best_score then begin
          best_score := score;
          best := v
        end
      end
    done;
    cancel_until s 0;
    let v =
      match !best with
      | -1 ->
        (* Unreachable (an unfilled trail leaves a probe candidate),
           but fall back to the first unassigned variable. *)
        let rec first i =
          if var_value s p.order.(i) = undef then p.order.(i)
          else first (i + 1)
        in
        first 0
      | v -> v
    in
    `Split (v + 1)
  with
  | Probe_dead ->
    cancel_until s 0;
    `Unsat
  | Probe_model m ->
    cancel_until s 0;
    `Sat m

let solve_assuming ?limits ?proof ?heuristic ?restarts ?reduce_base
    ?reduce_inc ?interrupt ?snapshot ~assumptions f =
  let session = Incremental.create () in
  Incremental.ensure_capacity session f.Cnf.Formula.num_vars;
  Incremental.add_formula session f;
  let result, stats =
    Incremental.solve ?limits ?proof ?heuristic ?restarts ?reduce_base
      ?reduce_inc ?interrupt ~assumptions session
  in
  (* Cube-aware snapshot guard: a seed captured under assumptions bakes
     the cube's phases and activity order into what a warm start would
     replay on the *base* formula, so the hook only fires for an
     assumption-free call. *)
  (match snapshot with
   | Some hook when Array.length assumptions = 0 ->
     hook (capture_seed session.Incremental.s)
   | _ -> ());
  (result, stats, Incremental.last_core session)

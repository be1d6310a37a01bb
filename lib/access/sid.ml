(* Dense security identifiers (SIDs).

   The mediation hot path wants to index preallocated arrays, not hash
   structured keys: a subject identity (principal, clearance, ring,
   trusted) or a page id is interned ONCE to a small dense int, and
   every later decision is an array load indexed by that int.  This is
   the SELinux sid_map arrangement applied to the paper's kernel: the
   structured attributes stay the source of truth, the SID is only a
   compressed name for them, minted in arrival order and never reused.

   Two SID spaces need no interning at all, because the kernel already
   names them with small dense ints: file-system object uids (the Uid
   generator is the object-SID allocator) and segment numbers (the
   hardware's own per-process dense space).  [of_int] admits those
   spaces; [Map] interns everything else. *)

type t = int

let of_int i = if i < 0 then invalid_arg "Sid.of_int: negative sid" else i
let to_int t = t
let equal = Int.equal
let compare = Int.compare
let pp ppf t = Fmt.pf ppf "sid:%d" t

(* A registry from structured values to dense SIDs.  Interning is the
   cold path (a hashed lookup); everything downstream of the returned
   SID is int-indexed.  SIDs are minted 0, 1, 2, ... in first-arrival
   order and are stable for the registry's lifetime — there is no
   delete, because a SID that could be reused would let a stale table
   row describe a different principal. *)
module Map = struct
  module Index = Hashtbl.Make (Int)

  type 'a t = {
    hash : 'a -> int;
    equal : 'a -> 'a -> bool;
    (* Buckets keyed by the caller's hash; collisions split by the
       caller's equality, so a lossy hash costs probes, never identity
       confusion. *)
    index : ('a * int) list Index.t;
    mutable values : 'a option array;  (** sid -> canonical value *)
    mutable count : int;
  }

  let create ?(initial = 64) ?(hash = Hashtbl.hash) ?(equal = ( = )) () =
    {
      hash;
      equal;
      index = Index.create (max 16 initial);
      values = Array.make (max 16 initial) None;
      count = 0;
    }

  let count t = t.count

  let ensure t needed =
    if needed > Array.length t.values then begin
      let grown = Array.make (max needed (2 * Array.length t.values)) None in
      Array.blit t.values 0 grown 0 t.count;
      t.values <- grown
    end

  let bucket t h = match Index.find_opt t.index h with Some b -> b | None -> []

  (* The SID of [v] in a bucket, or -1: a direct walk, so a lookup
     allocates no closure and no option. *)
  let rec sid_in equal v = function
    | [] -> -1
    | (k, sid) :: rest -> if equal k v then sid else sid_in equal v rest

  let find t v =
    let sid = sid_in t.equal v (bucket t (t.hash v)) in
    if sid < 0 then None else Some sid

  let intern t v =
    let h = t.hash v in
    let bucket = bucket t h in
    let found = sid_in t.equal v bucket in
    if found >= 0 then found
    else begin
      let sid = t.count in
      ensure t (sid + 1);
      t.values.(sid) <- Some v;
      t.count <- sid + 1;
      Index.replace t.index h ((v, sid) :: bucket);
      sid
    end

  let value t sid =
    if sid < 0 || sid >= t.count then invalid_arg "Sid.Map.value: unknown sid"
    else
      match t.values.(sid) with
      | Some v -> v
      | None -> invalid_arg "Sid.Map.value: unknown sid"

  let iter f t =
    for sid = 0 to t.count - 1 do
      match t.values.(sid) with Some v -> f sid v | None -> ()
    done
end

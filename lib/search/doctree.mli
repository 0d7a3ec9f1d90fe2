(** Flattened, Dewey-labelled view of an XML document.

    The search engine never walks the raw {!Xsact_xml.Xml} tree at query
    time; it works over this node table, where every element has a pre-order
    integer id, a Dewey label, and a parent pointer. Pre-order ids give two
    invariants the query algorithms exploit:

    - [parent.id < child.id] for every edge (bottom-up passes can simply scan
      ids in descending order), and
    - id order = document order = Dewey order. *)

type node = {
  id : int;  (** pre-order index, root = 0 *)
  parent : int;  (** parent id, [-1] for the root *)
  dewey : Dewey.t;
  tag : string;
  element : Xml.element;  (** the subtree rooted at this node (shared) *)
  text : string;  (** immediate text content (direct text children) *)
  depth : int;  (** root = 1 *)
}

type t

val of_document : Xml.document -> t

val of_element : Xml.element -> t
(** Treat [element] as a document root. *)

val size : t -> int
(** Number of element nodes. *)

val node : t -> int -> node
(** @raise Invalid_argument on an out-of-range id. *)

val nodes : t -> node array
(** The underlying table (do not mutate). *)

val parent_ids : t -> int array
(** [(parent_ids t).(id) = (node t id).parent], as one flat array for passes
    that climb many parent links (do not mutate). *)

val max_depth : t -> int
(** The greatest node depth (root = 1): the length of the longest root
    path. *)

val parent : t -> int -> node option

val subtree_end : t -> int -> int
(** [subtree_end t id] is the id one past the last descendant of [id]: the
    subtree of [id] is exactly the id interval [\[id, subtree_end t id)]. *)

val is_descendant_or_self : t -> ancestor:int -> int -> bool

val find_by_dewey : t -> Dewey.t -> node option
(** Binary search by document order. *)

val ancestors : t -> int -> node list
(** Ancestors of a node from parent up to the root (excluding the node). *)

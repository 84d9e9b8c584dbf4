(** Array builders that never force a minor collection.

    OCaml 5's [caml_make_vect] runs a minor collection — a stop-the-world
    pause across every domain — before it creates an array of more than
    256 words from a young initial value, and [Array.init],
    [Array.map] and [Array.of_list] create their result from its first,
    usually young, element.  These replacements cost one extra copy and
    no collection.  Where the element type has a static filler ([[||]],
    [None], a constant constructor), [Array.make] with that filler is
    cheaper still.  See DESIGN.md "Batched execution". *)

val make : int -> 'a -> 'a array
val init : int -> (int -> 'a) -> 'a array
(** Calls [f] in index order, like [Array.init]. *)

val of_list : 'a list -> 'a array

val of_rev_list : 'a list -> 'a array
(** [of_rev_list l] is [of_list (List.rev l)] without the reversed copy. *)

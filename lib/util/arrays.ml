(* Large arrays are gathered from chunks of at most [Max_young_wosize]
   (256) words: a chunk that small is allocated on the minor heap without
   a collection, and [Array.concat] allocates the large result straight
   in the major heap without one either. *)
let chunk = 256

let make n x =
  if n <= chunk then Array.make n x
  else begin
    let parts = ref [] and left = ref n in
    while !left > 0 do
      let k = min chunk !left in
      parts := Array.make k x :: !parts;
      left := !left - k
    done;
    Array.concat !parts
  end

let init n f =
  if n <= chunk then Array.init n f
  else begin
    let a = make n (f 0) in
    for i = 1 to n - 1 do
      a.(i) <- f i
    done;
    a
  end

let of_list = function
  | [] -> [||]
  | x :: _ as l ->
      let a = make (List.length l) x in
      List.iteri (fun i y -> a.(i) <- y) l;
      a

let of_rev_list = function
  | [] -> [||]
  | x :: _ as l ->
      let n = List.length l in
      let a = make n x in
      List.iteri (fun i y -> a.(n - 1 - i) <- y) l;
      a

package repro.core.schema

/** A join tree over a set of relations (LMFAO's "backbone of the plan").
  *
  * Nodes are relations; an (undirected) edge means the two relations are
  * natural-joined on their shared attributes. The tree must be connected,
  * acyclic, and satisfy the running intersection property (every attribute's
  * set of relations forms a connected subtree), which makes directional-view
  * decomposition sound.
  *
  * `sizes` are cardinality hints (paper: "cardinality constraints") consumed
  * by the root-assignment heuristic; they do not affect correctness.
  */
final case class JoinTree(
    relations: Seq[Relation],
    edges: Seq[(String, String)],
    sizes: Map[String, Long] = Map.empty,
) {
  require(relations.nonEmpty, "join tree must have at least one relation")
  require(relations.map(_.name).distinct.size == relations.size, "duplicate relation names")

  val relationByName: Map[String, Relation] = relations.map(r => r.name -> r).toMap

  edges.foreach { case (a, b) =>
    require(relationByName.contains(a) && relationByName.contains(b), s"edge ($a,$b) references unknown relation")
    require(a != b, s"self edge on $a")
    require(joinKeys(a, b).nonEmpty, s"edge ($a,$b) has no shared attributes")
  }
  require(edges.size == relations.size - 1, s"a tree over ${relations.size} nodes needs ${relations.size - 1} edges, got ${edges.size}")

  /** Adjacency over the undirected tree. */
  val neighbors: Map[String, Seq[String]] = {
    val m = scala.collection.mutable.Map.empty[String, Vector[String]].withDefaultValue(Vector.empty)
    edges.foreach { case (a, b) => m(a) = m(a) :+ b; m(b) = m(b) :+ a }
    relations.map(r => r.name -> m(r.name)).toMap
  }

  /** The tree's edges in BFS order from `relations.head`, each as (relation
    * already reached, newly reached relation). Joining along them in this
    * order keeps every join key in the prefix, so the natural join can be
    * written as a chain of binary equi-joins.
    */
  val bfsEdges: Seq[(String, String)] = walk(relations.head.name)((_, _) => true)

  // Connectivity (and therefore, with the edge count check, acyclicity).
  require(bfsEdges.size == relations.size - 1, "join tree is not connected")

  /** All attributes appearing anywhere in the tree. */
  val allAttrs: Set[String] = relations.flatMap(_.attrs).toSet

  /** Canonical owner of an attribute: the first relation in schema order that
    * contains it. Every unary aggregate factor over the attribute is evaluated
    * exactly once, at its owner node.
    */
  val owner: Map[String, String] =
    allAttrs.map(a => a -> relations.find(_.has(a)).get.name).toMap

  // Running intersection property: relations containing attribute a induce a
  // connected subgraph of the tree.
  allAttrs.foreach { a =>
    val holders = relations.filter(_.has(a)).map(_.name).toSet
    require(reach(holders.head)((_, m) => holders.contains(m)) == holders,
      s"running intersection violated for attribute $a (relations ${holders.mkString(",")})")
  }

  /** BFS from `start` over the edges `follow` admits: the discovery edges
    * (reached, newly reached) in visit order.
    */
  private def walk(start: String)(follow: (String, String) => Boolean): Seq[(String, String)] = {
    val seen = scala.collection.mutable.Set(start)
    val queue = scala.collection.mutable.Queue(start)
    val out = scala.collection.mutable.ArrayBuffer.empty[(String, String)]
    while (queue.nonEmpty) {
      val n = queue.dequeue()
      neighbors(n).foreach { m => if (follow(n, m) && seen.add(m)) { queue += m; out += ((n, m)) } }
    }
    out.toSeq
  }

  /** Relations reachable from `start` over the edges `follow` admits. */
  private def reach(start: String)(follow: (String, String) => Boolean): Set[String] =
    walk(start)(follow).map(_._2).toSet + start

  /** Natural-join attributes between two adjacent relations. */
  def joinKeys(a: String, b: String): Seq[String] =
    relationByName(a).attrs.filter(relationByName(b).attrSet.contains)

  def sizeOf(name: String): Long = sizes.getOrElse(name, 1L)

  /** Relations on `child`'s side of the (child, parent) edge, child included. */
  def subtreeNodes(child: String, parent: String): Set[String] = {
    require(neighbors(child).contains(parent), s"($child,$parent) is not an edge")
    reach(child)((n, m) => !(n == child && m == parent))
  }

  /** Attributes visible in the subtree on `child`'s side of (child, parent). */
  def subtreeAttrs(child: String, parent: String): Set[String] =
    subtreeNodes(child, parent).flatMap(n => relationByName(n).attrSet)

  /** Directed edges (child -> parent) in bottom-up order when the tree is
    * rooted at `root`: every edge appears after all edges below it.
    */
  def bottomUpEdges(root: String): Seq[(String, String)] = {
    require(relationByName.contains(root), s"unknown root $root")
    val out = scala.collection.mutable.ArrayBuffer.empty[(String, String)]
    def visit(node: String, parent: Option[String]): Unit = {
      neighbors(node).filterNot(parent.contains).foreach { c =>
        visit(c, Some(node))
        out += ((c, node))
      }
    }
    visit(root, None)
    out.toSeq
  }
}

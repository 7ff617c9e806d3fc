"""Stdlib graph walks over ordered successor dicts.

The paper's static analysis needs only small graph walks, and this
module holds all of them:

* :func:`strongly_connected_components` (Tarjan) — the feedback arcs
  that path equalization and the deadlock cures leave alone;
* :func:`topological_order` (Kahn) — relay depths, the transient bound
  and acyclicity;
* :func:`back_edges` (depth-first search) — the edges the layered
  placer ignores to break loops;
* :func:`simple_cycles` (Johnson) — the loops of shells and relay
  stations behind ``T = S/(S+R)``;
* :func:`node_disjoint_paths` (unit-capacity augmenting paths on split
  nodes) — the reconvergent branches behind ``T = (m - i)/m``.

Every function reads a *successor dict*: each node maps to the list of
its successors, with nodes and successors in a fixed order
(:func:`successors` builds one and drops parallel edges;
:func:`predecessors` reverses one).  Results follow that order and
never the iteration order of a ``set``, so they are the same in every
process whatever ``PYTHONHASHSEED`` is.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, Iterator, List, Optional, Set, Tuple

Node = Hashable
Successors = Dict[Node, List[Node]]


def successors(nodes: Iterable[Node],
               edges: Iterable[Tuple[Node, Node]]) -> Successors:
    """Successor dict of *nodes* and *edges*, each successor listed once.

    Nodes keep the order given (an edge endpoint missing from *nodes*
    is appended); successors keep the order of their first edge.
    """
    succ: Dict[Node, Dict[Node, None]] = {node: {} for node in nodes}
    for src, dst in edges:
        succ.setdefault(src, {})[dst] = None
        succ.setdefault(dst, {})
    return {node: list(targets) for node, targets in succ.items()}


def predecessors(succ: Successors) -> Successors:
    """The reversed dict: each node's predecessors, in dict order."""
    preds: Successors = {node: [] for node in succ}
    for node, targets in succ.items():
        for target in targets:
            preds[target].append(node)
    return preds


def strongly_connected_components(succ: Successors) -> List[List[Node]]:
    """Tarjan's strongly connected components, each a list of nodes.

    A component comes out before every component that reaches it;
    members are listed in search order.
    """
    index: Dict[Node, int] = {}
    low: Dict[Node, int] = {}
    stack: List[Node] = []
    on_stack: Set[Node] = set()
    components: List[List[Node]] = []

    def visit(node: Node) -> None:
        index[node] = low[node] = len(index)
        stack.append(node)
        on_stack.add(node)
        work.append((node, iter(succ[node])))

    for root in succ:
        if root in index:
            continue
        work: List[Tuple[Node, Iterator[Node]]] = []
        visit(root)
        while work:
            node, children = work[-1]
            for child in children:
                if child not in index:
                    visit(child)
                    break
                if child in on_stack:
                    low[node] = min(low[node], index[child])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
                if low[node] == index[node]:
                    split = len(stack) - stack[::-1].index(node) - 1
                    component = stack[split:]
                    del stack[split:]
                    on_stack.difference_update(component)
                    components.append(component)
    return components


def topological_order(succ: Successors) -> Optional[List[Node]]:
    """Kahn's order, or ``None`` when the graph has a cycle.

    First-in first-out: the nodes without predecessors in dict order,
    then each node once its last predecessor is placed, in the order
    that happens (the generation order of ``networkx.topological_sort``).
    """
    indegree = dict.fromkeys(succ, 0)
    for targets in succ.values():
        for target in targets:
            indegree[target] += 1
    order = [node for node, degree in indegree.items() if degree == 0]
    for node in order:  # the list is its own queue
        for target in succ[node]:
            indegree[target] -= 1
            if indegree[target] == 0:
                order.append(target)
    return order if len(order) == len(succ) else None


def back_edges(succ: Successors) -> List[Tuple[Node, Node]]:
    """Edges into a node still on the path of one depth-first search.

    The search starts from each unvisited node in dict order and takes
    successors in order.  Dropping these edges leaves the graph acyclic;
    since none of them is a tree edge, dropping one does not change the
    search, so repeatedly removing the closing edge of the first cycle
    a search finds (``networkx.find_cycle``) removes exactly these.
    """
    visited: Set[Node] = set()
    on_path: Set[Node] = set()
    found: List[Tuple[Node, Node]] = []
    for root in succ:
        if root in visited:
            continue
        visited.add(root)
        on_path.add(root)
        work = [(root, iter(succ[root]))]
        while work:
            node, children = work[-1]
            for child in children:
                if child in on_path:
                    found.append((node, child))
                elif child not in visited:
                    visited.add(child)
                    on_path.add(child)
                    work.append((child, iter(succ[child])))
                    break
            else:
                work.pop()
                on_path.discard(node)
    return found


def simple_cycles(succ: Successors) -> Iterator[List[Node]]:
    """Johnson's elementary cycles, each a list of nodes.

    Self-loops come first, in dict order.  Every other cycle begins at
    its earliest node in dict order, and cycles are grouped by that
    node: all cycles through the first node, then those through the
    second that avoid the first, and so on.
    """
    for node, targets in succ.items():
        if node in targets:
            yield [node]
    position = {node: i for i, node in enumerate(succ)}
    component_of: Dict[Node, List[Node]] = {}
    for component in strongly_connected_components(succ):
        component.sort(key=position.__getitem__)
        for node in component:
            component_of[node] = component
    for start in succ:
        component = component_of[start]
        # Johnson: the cycles through *start* that avoid every earlier
        # node lie in start's component of what is left.
        later = component[component.index(start):]
        if len(later) < 2:
            continue
        keep = set(later)
        adj = {node: [w for w in succ[node] if w in keep and w != node]
               for node in later}
        keep = _reachable(adj, start) & _reachable(predecessors(adj), start)
        if len(keep) > 1:
            yield from _cycles_through(start, {
                node: [w for w in targets if w in keep]
                for node, targets in adj.items() if node in keep})


def _reachable(adj: Successors, start: Node) -> Set[Node]:
    seen = {start}
    frontier = [start]
    while frontier:
        for child in adj[frontier.pop()]:
            if child not in seen:
                seen.add(child)
                frontier.append(child)
    return seen


def _cycles_through(start: Node, adj: Successors) -> Iterator[List[Node]]:
    """Johnson's circuit search from *start* in a strongly connected
    *adj* (no self-loops)."""
    path = [start]
    blocked = {start}
    blocked_by: Dict[Node, Set[Node]] = {}
    closed = [False]
    work = [iter(adj[start])]
    while work:
        for child in work[-1]:
            if child == start:
                yield list(path)
                closed[-1] = True
            elif child not in blocked:
                path.append(child)
                blocked.add(child)
                closed.append(False)
                work.append(iter(adj[child]))
                break
        else:
            work.pop()
            node = path.pop()
            if closed.pop():
                if closed:
                    closed[-1] = True
                release = [node]
                while release:
                    freed = release.pop()
                    if freed in blocked:
                        blocked.discard(freed)
                        release.extend(blocked_by.pop(freed, ()))
            else:
                for child in adj[node]:
                    blocked_by.setdefault(child, set()).add(node)


def node_disjoint_paths(succ: Successors, source: Node, target: Node,
                        limit: Optional[int] = None) -> List[List[Node]]:
    """A maximum set of paths *source* -> *target* sharing no inner node.

    Unit-capacity max flow on the split graph: node ``v`` becomes
    ``v_in -> v_out`` with capacity one, and edge ``u -> v`` becomes
    ``u_out -> v_in``.  Each augmenting path is a shortest one, found by
    the bidirectional breadth-first search of networkx's Edmonds-Karp
    over the same residual arcs in the same order, so the paths are the
    ones ``networkx.node_disjoint_paths`` returns.  With *limit* the
    search stops after that many paths.  Paths are listed by their first
    hop in successor order; ``[]`` when *target* is unreachable.
    """
    if source not in succ or target not in succ:
        raise KeyError(source if source not in succ else target)
    position = {node: i for i, node in enumerate(succ)}
    preds = predecessors(succ)
    loops = {node for node, targets in succ.items() if node in targets}
    used: Set[Tuple[Node, Node]] = set()  # edges carrying a unit of flow
    feeder: Dict[Node, Node] = {}  # inner node -> the node feeding it

    # States are (node, 0) for v_in and (node, 1) for v_out.  A self-loop
    # u_out -> u_in shares the residual arc that cancels u's inner arc.
    def forward(state):
        node, side = state
        if side == 0:
            return [(feeder[node], 1) if node in feeder else (node, 1)]
        steps = [(node, 0)] if node in feeder or node in loops else []
        return steps + [(w, 0) for w in succ[node]
                        if w != node and (node, w) not in used]

    def backward(state):
        node, side = state
        if side == 1:
            steps = [] if node in feeder else [(node, 0)]
            return steps + [(w, 0) for w in succ[node]
                            if w != node and (node, w) in used]
        steps = [(u, 1) for u in preds[node]
                 if u != node and (u, node) not in used]
        if node in feeder or node in loops:
            here = position[node]
            steps.insert(sum(position[u] < here for u, _ in steps),
                         (node, 1))
        return steps

    start, goal = (source, 1), (target, 0)
    found = 0
    while limit is None or found < limit:
        path = _augmenting_path(start, goal, forward, backward)
        if path is None:
            break
        for (u, u_side), (v, _v_side) in zip(path, path[1:]):
            if u != v:  # an edge: pushed from u_out, or cancelled
                if u_side == 1:
                    used.add((u, v))
                else:
                    used.discard((v, u))
        feeder.clear()
        feeder.update((v, u) for u, v in used if v != target)
        found += 1
    onward = {u: v for u, v in used if u != source}
    paths = []
    for first in succ[source]:
        if (source, first) in used:
            path = [source, first]
            while path[-1] != target:
                path.append(onward[path[-1]])
            paths.append(path)
    return paths


def _augmenting_path(start, goal, forward, backward):
    """Grow the smaller of the two search frontiers one layer at a time
    until they meet; the path through the meeting state, or ``None``."""
    parent = {start: start}
    child = {goal: goal}
    ahead, behind = [start], [goal]
    meet = None
    while ahead and behind and meet is None:
        grow_ahead = len(ahead) <= len(behind)
        layer, step_of, seen, other = (
            (ahead, forward, parent, child) if grow_ahead
            else (behind, backward, child, parent))
        fresh = []
        for state in layer:
            for step in step_of(state):
                if step not in seen:
                    seen[step] = state
                    if step in other:
                        meet = step
                        break
                    fresh.append(step)
            if meet is not None:
                break
        if grow_ahead:
            ahead = fresh
        else:
            behind = fresh
    if meet is None:
        return None
    path = [meet]
    while path[-1] != start:
        path.append(parent[path[-1]])
    path.reverse()
    while path[-1] != goal:
        path.append(child[path[-1]])
    return path

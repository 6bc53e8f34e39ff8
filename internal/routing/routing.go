// Package routing implements D-Memo's Routing class (paper §3.1.1, §5).
//
// Each application defines a logical point-to-point topology in its ADF; the
// routing table derived from it drives every inter-host message. A Table
// computes all-pairs shortest paths (Dijkstra per source) over the weighted
// logical links and answers two questions:
//
//   - NextHop(src, dst): which neighbour a memo server forwards a request to
//     ("a path is established ... via one or more memo server threads").
//   - Cost(src, dst): the total link cost, which the placement policy folds
//     into folder-name hashing (§5).
//
// Simplex ("->") links are directed; duplex ("<->") links contribute an edge
// in each direction. Ties between equal-cost paths break toward the
// lexicographically smaller neighbour so every host computes identical
// tables — a requirement for consistent placement.
package routing

import (
	"container/heap"
	"fmt"
	"math"
	"sort"
)

// Link is one logical point-to-point connection from the ADF PPC section.
type Link struct {
	From, To string
	Cost     float64
	Duplex   bool
}

// Graph is the application's logical topology.
type Graph struct {
	hosts map[string]bool
	adj   map[string][]edge
}

type edge struct {
	to   string
	cost float64
}

// NewGraph returns an empty topology.
func NewGraph() *Graph {
	return &Graph{hosts: make(map[string]bool), adj: make(map[string][]edge)}
}

// AddHost declares a host with no links yet.
func (g *Graph) AddHost(h string) {
	g.hosts[h] = true
}

// AddLink declares a logical connection. Cost must be positive.
func (g *Graph) AddLink(l Link) error {
	if l.Cost <= 0 {
		return fmt.Errorf("routing: link %s->%s has non-positive cost %g", l.From, l.To, l.Cost)
	}
	if l.From == l.To {
		return fmt.Errorf("routing: self link on %s", l.From)
	}
	g.hosts[l.From] = true
	g.hosts[l.To] = true
	g.adj[l.From] = append(g.adj[l.From], edge{l.To, l.Cost})
	if l.Duplex {
		g.adj[l.To] = append(g.adj[l.To], edge{l.From, l.Cost})
	}
	return nil
}

// Hosts returns all hosts in sorted order.
func (g *Graph) Hosts() []string {
	out := make([]string, 0, len(g.hosts))
	for h := range g.hosts {
		out = append(out, h)
	}
	sort.Strings(out)
	return out
}

// HasLink reports whether a direct edge from src to dst exists and, when
// parallel links were declared, the cheapest one's cost (which is the cost
// shortest-path computation uses).
func (g *Graph) HasLink(src, dst string) (float64, bool) {
	best, found := 0.0, false
	for _, e := range g.adj[src] {
		if e.to == dst && (!found || e.cost < best) {
			best, found = e.cost, true
		}
	}
	return best, found
}

// Table is the per-application routing table stored in every memo server.
type Table struct {
	graph   *Graph
	nextHop map[string]map[string]string
	cost    map[string]map[string]float64
}

// Unreachable is the cost reported between disconnected hosts.
const Unreachable = math.MaxFloat64

// Build computes the all-pairs table. It runs Dijkstra once per host:
// O(H · E log H), at application-registration time only.
func Build(g *Graph) *Table {
	t := &Table{
		graph:   g,
		nextHop: make(map[string]map[string]string),
		cost:    make(map[string]map[string]float64),
	}
	for _, src := range g.Hosts() {
		dist, first := dijkstra(g, src)
		t.nextHop[src] = first
		t.cost[src] = dist
	}
	return t
}

// pqItem is a priority-queue entry.
type pqItem struct {
	host string
	dist float64
}

type pq []pqItem

func (p pq) Len() int           { return len(p) }
func (p pq) Less(i, j int) bool { return p[i].dist < p[j].dist }
func (p pq) Swap(i, j int)      { p[i], p[j] = p[j], p[i] }
func (p *pq) Push(x any)        { *p = append(*p, x.(pqItem)) }
func (p *pq) Pop() any {
	old := *p
	n := len(old)
	item := old[n-1]
	*p = old[:n-1]
	return item
}

// dijkstra returns distances from src and, for each destination, the first
// hop on the chosen shortest path.
func dijkstra(g *Graph, src string) (dist map[string]float64, first map[string]string) {
	dist = map[string]float64{src: 0}
	first = map[string]string{}
	// prev[h] is the predecessor on the chosen path.
	prev := map[string]string{}
	done := map[string]bool{}
	q := &pq{{src, 0}}
	for q.Len() > 0 {
		cur := heap.Pop(q).(pqItem)
		if done[cur.host] {
			continue
		}
		done[cur.host] = true
		// Deterministic edge order for tie-breaking.
		edges := append([]edge(nil), g.adj[cur.host]...)
		sort.Slice(edges, func(i, j int) bool { return edges[i].to < edges[j].to })
		for _, e := range edges {
			nd := cur.dist + e.cost
			old, seen := dist[e.to]
			better := !seen || nd < old
			// Equal-cost tie: prefer the path whose predecessor is
			// lexicographically smaller, for cross-host determinism.
			if seen && nd == old && !done[e.to] && cur.host < prev[e.to] {
				better = true
			}
			if better {
				dist[e.to] = nd
				prev[e.to] = cur.host
				heap.Push(q, pqItem{e.to, nd})
			}
		}
	}
	// Derive first hops by walking predecessors back to src.
	for h := range dist {
		if h == src {
			continue
		}
		hop := h
		for prev[hop] != src {
			hop = prev[hop]
		}
		first[h] = hop
	}
	return dist, first
}

// Cost reports the shortest-path cost from src to dst, or Unreachable.
func (t *Table) Cost(src, dst string) float64 {
	if src == dst {
		return 0
	}
	if m, ok := t.cost[src]; ok {
		if c, ok := m[dst]; ok {
			return c
		}
	}
	return Unreachable
}

// Reachable reports whether dst can be reached from src.
func (t *Table) Reachable(src, dst string) bool {
	return t.Cost(src, dst) != Unreachable
}

// NextHop reports the neighbour src forwards to on the way to dst. For
// src == dst it returns src. ok is false when dst is unreachable.
func (t *Table) NextHop(src, dst string) (hop string, ok bool) {
	if src == dst {
		return src, true
	}
	m, have := t.nextHop[src]
	if !have {
		return "", false
	}
	hop, ok = m[dst]
	return hop, ok
}

// Path expands the full hop sequence from src to dst, inclusive of both.
func (t *Table) Path(src, dst string) ([]string, bool) {
	if src == dst {
		return []string{src}, true
	}
	path := []string{src}
	cur := src
	for cur != dst {
		hop, ok := t.NextHop(cur, dst)
		if !ok {
			return nil, false
		}
		path = append(path, hop)
		cur = hop
		if len(path) > len(t.graph.hosts)+1 {
			return nil, false // defensive: cycle in next-hop table
		}
	}
	return path, true
}

// Hops reports the number of links on the path from src to dst, or -1.
func (t *Table) Hops(src, dst string) int {
	p, ok := t.Path(src, dst)
	if !ok {
		return -1
	}
	return len(p) - 1
}

// Centrality reports the mean shortest-path cost from every host to dst.
// The placement policy uses it to discount servers that are far from the
// cluster as a whole while keeping the weight identical on every host.
func (t *Table) Centrality(dst string) float64 {
	hosts := t.graph.Hosts()
	if len(hosts) <= 1 {
		return 0
	}
	var sum float64
	var n int
	for _, src := range hosts {
		if src == dst {
			continue
		}
		c := t.Cost(src, dst)
		if c == Unreachable {
			return Unreachable
		}
		sum += c
		n++
	}
	return sum / float64(n)
}

package deletion

import (
	"fmt"

	"repro/internal/algebra"
	"repro/internal/flow"
	"repro/internal/relation"
)

// ChainInfo describes a recognized chain join: Π_B(R1 ⋈ R2 ⋈ ... ⋈ Rk)
// over distinct base relations where only consecutive relations share
// attributes (the definition before Theorem 2.6).
type ChainInfo struct {
	// Relations in chain order.
	Relations []string
	// ProjAttrs is the projection list (the view schema).
	ProjAttrs []relation.Attribute
}

// DetectChain checks whether q is a PJ chain-join query in normal form and
// returns the chain ordering. It returns an error otherwise.
func DetectChain(q algebra.Query, db *relation.Database) (*ChainInfo, error) {
	n := algebra.Normalize(q)
	var projAttrs []relation.Attribute
	body := n
	if p, ok := n.(algebra.Project); ok {
		projAttrs = p.Attrs
		body = p.Child
	}
	scans, err := flattenJoinScans(body)
	if err != nil {
		return nil, err
	}
	if projAttrs == nil {
		s, err := algebra.SchemaOf(body, db)
		if err != nil {
			return nil, err
		}
		projAttrs = s.Attrs()
	}
	// Distinct relations.
	seen := make(map[string]bool)
	schemas := make([]relation.Schema, len(scans))
	for i, name := range scans {
		if seen[name] {
			return nil, fmt.Errorf("deletion: chain join requires distinct relations; %q repeats", name)
		}
		seen[name] = true
		r := db.Relation(name)
		if r == nil {
			return nil, fmt.Errorf("deletion: unknown relation %q", name)
		}
		schemas[i] = r.Schema()
	}
	if len(scans) == 1 {
		return &ChainInfo{Relations: scans, ProjAttrs: projAttrs}, nil
	}
	// Build the sharing graph and find a Hamiltonian path that must be the
	// chain: a valid chain's sharing graph is exactly a path, so degrees
	// are ≤ 2 with exactly two degree-1 endpoints, and non-consecutive
	// relations are disjoint.
	adj := make([][]int, len(scans))
	for i := range scans {
		for j := i + 1; j < len(scans); j++ {
			if !schemas[i].Disjoint(schemas[j]) {
				adj[i] = append(adj[i], j)
				adj[j] = append(adj[j], i)
			}
		}
	}
	var endpoints []int
	for i, a := range adj {
		switch len(a) {
		case 1:
			endpoints = append(endpoints, i)
		case 2:
		default:
			return nil, fmt.Errorf("deletion: %q shares attributes with %d relations; not a chain", scans[i], len(a))
		}
	}
	if len(endpoints) != 2 {
		return nil, fmt.Errorf("deletion: sharing graph is not a path (%d endpoints)", len(endpoints))
	}
	order := make([]int, 0, len(scans))
	visited := make([]bool, len(scans))
	cur := endpoints[0]
	for {
		order = append(order, cur)
		visited[cur] = true
		next := -1
		for _, nb := range adj[cur] {
			if !visited[nb] {
				next = nb
				break
			}
		}
		if next < 0 {
			break
		}
		cur = next
	}
	if len(order) != len(scans) {
		return nil, fmt.Errorf("deletion: sharing graph is disconnected; not a chain")
	}
	ordered := make([]string, len(order))
	for i, idx := range order {
		ordered[i] = scans[idx]
	}
	return &ChainInfo{Relations: ordered, ProjAttrs: projAttrs}, nil
}

func flattenJoinScans(q algebra.Query) ([]string, error) {
	switch q := q.(type) {
	case algebra.Scan:
		return []string{q.Rel}, nil
	case algebra.Join:
		l, err := flattenJoinScans(q.Left)
		if err != nil {
			return nil, err
		}
		r, err := flattenJoinScans(q.Right)
		if err != nil {
			return nil, err
		}
		return append(l, r...), nil
	default:
		return nil, fmt.Errorf("deletion: chain body must be a join of scans, found %T", q)
	}
}

// SourceChainMinCut implements Theorem 2.6: for a chain-join PJ query, the
// minimum source deletion removing the target equals a minimum s-t vertex
// cut in the layered witness network — layer i holds the tuples of Ri that
// agree with the target, edges join consecutive-layer tuples that agree on
// shared attributes. Solved optimally in polynomial time by max-flow after
// node splitting.
func SourceChainMinCut(q algebra.Query, db *relation.Database, target relation.Tuple) (*Result, error) {
	info, err := DetectChain(q, db)
	if err != nil {
		return nil, err
	}
	view, err := algebra.Eval(q, db)
	if err != nil {
		return nil, err
	}
	if !view.Contains(target) {
		return nil, ErrNotInView
	}
	viewSchema := view.Schema()

	// Layer construction: keep tuples agreeing with the target on the
	// projected attributes their relation carries.
	type vertex struct {
		st relation.SourceTuple
	}
	var vertices []vertex
	layers := make([][]int, len(info.Relations)) // vertex ids per layer
	net := flow.NewVertexCutNetwork()
	for li, name := range info.Relations {
		r := db.Relation(name)
		shared := r.Schema().Common(viewSchema)
		for _, tu := range r.Tuples() {
			if !relation.AgreeOn(r.Schema(), tu, viewSchema, target, shared) {
				continue
			}
			id := net.AddVertex()
			if id != len(vertices) {
				return nil, fmt.Errorf("deletion: vertex id mismatch")
			}
			vertices = append(vertices, vertex{st: relation.SourceTuple{Rel: name, Tuple: tu}})
			layers[li] = append(layers[li], id)
		}
	}
	for _, v := range layers[0] {
		net.ConnectSource(v)
	}
	for _, v := range layers[len(layers)-1] {
		net.ConnectSink(v)
	}
	for li := 0; li+1 < len(layers); li++ {
		ra := db.Relation(info.Relations[li])
		rb := db.Relation(info.Relations[li+1])
		common := ra.Schema().Common(rb.Schema())
		for _, u := range layers[li] {
			for _, v := range layers[li+1] {
				if relation.AgreeOn(ra.Schema(), vertices[u].st.Tuple, rb.Schema(), vertices[v].st.Tuple, common) {
					net.Connect(u, v)
				}
			}
		}
	}
	// Single-relation chain: every surviving tuple yields the target on
	// its own; all must be deleted (matches the SPU argument).
	var T []relation.SourceTuple
	if len(info.Relations) == 1 {
		for _, v := range layers[0] {
			T = append(T, vertices[v].st)
		}
	} else {
		_, cut := net.Solve()
		for _, v := range cut {
			T = append(T, vertices[v].st)
		}
	}
	effects, _, err := SideEffectsOf(q, db, T, target)
	if err != nil {
		return nil, err
	}
	return finishResult(T, effects), nil
}

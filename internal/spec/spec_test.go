package spec

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/graph"
	"repro/internal/sptree"
)

// fig2 builds the specification graph of Fig. 2(a).
func fig2Graph() *graph.Graph {
	g := graph.New()
	for i := 1; i <= 7; i++ {
		id := graph.NodeID(fmt.Sprint(i))
		g.MustAddNode(id, fmt.Sprint(i))
	}
	for _, e := range [][2]string{
		{"1", "2"}, {"2", "3"}, {"3", "6"}, {"2", "4"}, {"4", "6"},
		{"2", "5"}, {"5", "6"}, {"6", "7"},
	} {
		g.MustAddEdge(graph.NodeID(e[0]), graph.NodeID(e[1]))
	}
	return g
}

func es(pairs ...[2]string) EdgeSet {
	var out EdgeSet
	for _, p := range pairs {
		out = append(out, graph.Edge{From: graph.NodeID(p[0]), To: graph.NodeID(p[1])})
	}
	return out
}

func fig2Forks() []EdgeSet {
	return []EdgeSet{
		es([2]string{"2", "3"}, [2]string{"3", "6"}),
		es([2]string{"2", "4"}, [2]string{"4", "6"}),
		es([2]string{"2", "5"}, [2]string{"5", "6"}),
		es([2]string{"1", "2"}, [2]string{"2", "3"}, [2]string{"3", "6"},
			[2]string{"2", "4"}, [2]string{"4", "6"}, [2]string{"2", "5"},
			[2]string{"5", "6"}, [2]string{"6", "7"}),
	}
}

func countType(root *sptree.Node, typ sptree.Type) int {
	n := 0
	root.Walk(func(v *sptree.Node) bool {
		if v.Type == typ {
			n++
		}
		return true
	})
	return n
}

func TestFig2AnnotatedTree(t *testing.T) {
	sp, err := New(fig2Graph(), fig2Forks(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := sptree.ValidateSpecTree(sp.Tree); err != nil {
		t.Fatal(err)
	}
	// Fig. 6(b): the root is the whole-graph F; below it an S with
	// (1,2), a P of three F nodes, and (6,7).
	if sp.Tree.Type != sptree.F {
		t.Fatalf("root type = %s, want F\n%s", sp.Tree.Type, sp.Tree)
	}
	s := sp.Tree.Children[0]
	if s.Type != sptree.S || len(s.Children) != 3 {
		t.Fatalf("copy should be S with 3 children:\n%s", sp.Tree)
	}
	if got := countType(sp.Tree, sptree.F); got != 4 {
		t.Fatalf("F nodes = %d, want 4", got)
	}
	mid := s.Children[1]
	if mid.Type != sptree.P || len(mid.Children) != 3 {
		t.Fatalf("middle should be P of 3 branches:\n%s", sp.Tree)
	}
	for _, c := range mid.Children {
		if c.Type != sptree.F {
			t.Fatalf("each branch should be wrapped in F:\n%s", sp.Tree)
		}
	}
	if sp.Tree.Src != "1" || sp.Tree.Dst != "7" {
		t.Fatalf("root terminals (%s,%s)", sp.Tree.Src, sp.Tree.Dst)
	}
}

func TestFig2WithLoopTree(t *testing.T) {
	loops := []EdgeSet{
		es([2]string{"2", "3"}, [2]string{"3", "6"}, [2]string{"2", "4"},
			[2]string{"4", "6"}, [2]string{"2", "5"}, [2]string{"5", "6"}),
	}
	sp, err := New(fig2Graph(), fig2Forks()[:3], loops)
	if err != nil {
		t.Fatal(err)
	}
	if got := countType(sp.Tree, sptree.L); got != 1 {
		t.Fatalf("L nodes = %d, want 1", got)
	}
	// The L node wraps the middle parallel block.
	var lnode *sptree.Node
	sp.Tree.Walk(func(v *sptree.Node) bool {
		if v.Type == sptree.L {
			lnode = v
		}
		return true
	})
	if lnode.Src != "2" || lnode.Dst != "6" {
		t.Fatalf("loop terminals (%s,%s), want (2,6)", lnode.Src, lnode.Dst)
	}
	if lnode.Children[0].Type != sptree.P {
		t.Fatalf("loop child should be the parallel block:\n%s", sp.Tree)
	}
}

func TestStats(t *testing.T) {
	sp, err := New(fig2Graph(), fig2Forks()[:3], []EdgeSet{
		es([2]string{"2", "3"}, [2]string{"3", "6"}, [2]string{"2", "4"},
			[2]string{"4", "6"}, [2]string{"2", "5"}, [2]string{"5", "6"}),
	})
	if err != nil {
		t.Fatal(err)
	}
	st := sp.Stats()
	want := Stats{V: 7, E: 8, Forks: 3, ForkSz: 6, Loops: 1, LoopSz: 6}
	if st != want {
		t.Fatalf("Stats = %+v, want %+v", st, want)
	}
}

func TestNonLaminarRejected(t *testing.T) {
	// (2,3,6) and a properly-intersecting set {(3,6),(2,4)}.
	forks := []EdgeSet{
		es([2]string{"2", "3"}, [2]string{"3", "6"}),
		es([2]string{"3", "6"}, [2]string{"2", "4"}),
	}
	if _, err := New(fig2Graph(), forks, nil); err == nil {
		t.Fatal("properly intersecting family must be rejected")
	}
}

func TestDuplicateSetRejected(t *testing.T) {
	h := es([2]string{"2", "3"}, [2]string{"3", "6"})
	if _, err := New(fig2Graph(), []EdgeSet{h}, []EdgeSet{h}); err == nil {
		t.Fatal("a fork and a loop over the same edge set must be rejected")
	}
	if _, err := New(fig2Graph(), []EdgeSet{h, h}, nil); err == nil {
		t.Fatal("duplicate forks must be rejected")
	}
}

func TestIncompleteSubgraphRejected(t *testing.T) {
	// {(2,3),(3,6),(2,4)} is contiguous in leaf order but not a
	// consecutive-children span of the S node (it cuts a P branch in
	// half).
	forks := []EdgeSet{es([2]string{"2", "3"}, [2]string{"3", "6"}, [2]string{"2", "4"})}
	if _, err := New(fig2Graph(), forks, nil); err == nil {
		t.Fatal("non-complete subgraph must be rejected")
	}
}

func TestUnknownEdgeRejected(t *testing.T) {
	forks := []EdgeSet{es([2]string{"1", "7"})}
	if _, err := New(fig2Graph(), forks, nil); err == nil {
		t.Fatal("unknown edge must be rejected")
	}
}

func TestEmptySetRejected(t *testing.T) {
	if _, err := New(fig2Graph(), []EdgeSet{{}}, nil); err == nil {
		t.Fatal("empty subgraph must be rejected")
	}
}

func TestNonUniqueLabelsRejected(t *testing.T) {
	g := graph.New()
	g.MustAddNode("a", "x")
	g.MustAddNode("b", "x")
	g.MustAddEdge("a", "b")
	if _, err := New(g, nil, nil); err == nil {
		t.Fatal("duplicate labels must be rejected")
	}
}

func TestConsecutiveChildrenFork(t *testing.T) {
	// Chain 1->2->3->4; fork over the middle segment {(2,3),(3,4)}
	// exercises Case 2 of Algorithm 1 (grouping consecutive children
	// of an S node under a fresh S).
	g := graph.New()
	for i := 1; i <= 5; i++ {
		id := graph.NodeID(fmt.Sprint(i))
		g.MustAddNode(id, fmt.Sprint(i))
	}
	for i := 1; i <= 4; i++ {
		g.MustAddEdge(graph.NodeID(fmt.Sprint(i)), graph.NodeID(fmt.Sprint(i+1)))
	}
	sp, err := New(g, []EdgeSet{es([2]string{"2", "3"}, [2]string{"3", "4"})}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := sptree.ValidateSpecTree(sp.Tree); err != nil {
		t.Fatal(err)
	}
	if sp.Tree.Type != sptree.S || len(sp.Tree.Children) != 3 {
		t.Fatalf("root should be S(Q, F, Q):\n%s", sp.Tree)
	}
	f := sp.Tree.Children[1]
	if f.Type != sptree.F || f.Children[0].Type != sptree.S || len(f.Children[0].Children) != 2 {
		t.Fatalf("fork should wrap a grouped S:\n%s", sp.Tree)
	}
	if f.Src != "2" || f.Dst != "4" {
		t.Fatalf("fork terminals (%s,%s), want (2,4)", f.Src, f.Dst)
	}
}

func TestAchievableLengths(t *testing.T) {
	sp, err := New(fig2Graph(), fig2Forks(), nil)
	if err != nil {
		t.Fatal(err)
	}
	// Whole workflow: every path 1->2->x->6->7 has length 4.
	root := sp.Tree
	if got := fmt.Sprint(sp.AchievableLengths(root)); got != "[4]" {
		t.Fatalf("root achievable lengths = %s, want [4]", got)
	}
	// Middle P block: each branch has length 2.
	mid := root.Children[0].Children[1]
	if got := fmt.Sprint(sp.AchievableLengths(mid)); got != "[2]" {
		t.Fatalf("middle achievable lengths = %s, want [2]", got)
	}
}

// TestAchievableLengthsConcurrent makes the first calls on a fresh
// specification from several goroutines at once, as concurrent first
// diffs of a shared specification do; run it with -race.
func TestAchievableLengthsConcurrent(t *testing.T) {
	sp, err := New(fig2Graph(), fig2Forks(), nil)
	if err != nil {
		t.Fatal(err)
	}
	var nodes []*sptree.Node
	sp.Tree.Walk(func(v *sptree.Node) bool {
		nodes = append(nodes, v)
		return true
	})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, v := range nodes {
				if len(sp.AchievableLengths(v)) == 0 {
					t.Errorf("node %v has no achievable length", v.Type)
				}
			}
		}()
	}
	wg.Wait()
}

func TestAchievableLengthsMixed(t *testing.T) {
	// s -> (a | b->c) -> t gives branch lengths 1 and 2, so the whole
	// chain achieves {3, 4}.
	g := graph.New()
	for _, n := range []string{"s", "a", "b", "c", "t"} {
		g.MustAddNode(graph.NodeID(n), n)
	}
	g.MustAddEdge("s", "a") // will become part of chain: s->a->...? build explicitly below
	_ = g
	g2 := graph.New()
	for _, n := range []string{"s", "m", "x", "t"} {
		g2.MustAddNode(graph.NodeID(n), n)
	}
	g2.MustAddEdge("s", "m")
	g2.MustAddEdge("m", "t") // direct branch, length 1
	g2.MustAddEdge("m", "x") // long branch m->x->t, length 2
	g2.MustAddEdge("x", "t")
	sp, err := New(g2, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(sp.AchievableLengths(sp.Tree)); got != "[2 3]" {
		t.Fatalf("achievable lengths = %s, want [2 3]", got)
	}
}

func TestIntervalsAndQNodes(t *testing.T) {
	sp, err := New(fig2Graph(), fig2Forks(), nil)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := sp.Interval(sp.Tree)
	if lo != 0 || hi != 8 {
		t.Fatalf("root interval [%d,%d), want [0,8)", lo, hi)
	}
	e := graph.Edge{From: "2", To: "4"}
	q := sp.QNode(e)
	if q == nil || q.Edge != e {
		t.Fatal("QNode lookup failed")
	}
	if i, ok := sp.LeafIndex(e); !ok || i < 0 || i >= 8 {
		t.Fatalf("LeafIndex = %d,%v", i, ok)
	}
	if _, ok := sp.EdgeByLabels("2", "4", 0); !ok {
		t.Fatal("EdgeByLabels failed")
	}
	if _, ok := sp.EdgeByLabels("2", "9", 0); ok {
		t.Fatal("EdgeByLabels should fail for unknown edge")
	}
}

func TestSpecTreeRendering(t *testing.T) {
	sp, err := New(fig2Graph(), fig2Forks(), nil)
	if err != nil {
		t.Fatal(err)
	}
	out := sp.Tree.String()
	if !strings.Contains(out, "F [1..7]") {
		t.Fatalf("rendering missing root F: %s", out)
	}
}

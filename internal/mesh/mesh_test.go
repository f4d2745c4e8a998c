package mesh

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestRouteXYOrder(t *testing.T) {
	m := Paragon()
	path := m.Route(Coord{X: 3, Y: 0}, Coord{X: 0, Y: 1})
	// XY routing: all X movement first (3 west hops), then Y (1 south).
	if len(path) != 4 {
		t.Fatalf("path length %d, want 4", len(path))
	}
	for i := 0; i < 3; i++ {
		if path[i].From.Y != 0 || path[i].To.Y != 0 {
			t.Errorf("hop %d moved in Y before X finished: %v", i, path[i])
		}
		if path[i].To.X != path[i].From.X-1 {
			t.Errorf("hop %d not westward: %v", i, path[i])
		}
	}
	last := path[3]
	if last.From.X != 0 || last.To.X != 0 || last.To.Y != 1 {
		t.Errorf("final hop not southward in column 0: %v", last)
	}
}

func TestRouteSelfEmpty(t *testing.T) {
	m := Paragon()
	if p := m.Route(Coord{X: 2, Y: 1}, Coord{X: 2, Y: 1}); len(p) != 0 {
		t.Errorf("self route has %d hops", len(p))
	}
}

func TestRoutePanicsOutsideMachine(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic for out-of-machine route")
		}
	}()
	Paragon().Route(Coord{X: 99}, Coord{})
}

func TestRouteContinuity(t *testing.T) {
	// Property: every route is a chain of unit steps from a to b.
	m := Paragon()
	f := func(ax, ay, bx, by uint8) bool {
		a := Coord{X: int(ax) % m.DimX, Y: int(ay) % m.DimY}
		b := Coord{X: int(bx) % m.DimX, Y: int(by) % m.DimY}
		path := m.Route(a, b)
		cur := a
		for _, l := range path {
			if l.From != cur {
				return false
			}
			d := abs(l.To.X-l.From.X) + abs(l.To.Y-l.From.Y) + abs(l.To.Z-l.From.Z)
			if d != 1 {
				return false
			}
			cur = l.To
		}
		return cur == b && len(path) == abs(a.X-b.X)+abs(a.Y-b.Y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTorusShortWay(t *testing.T) {
	m := T3D() // 8x8x4 torus
	// From x=0 to x=7 the short way is one wraparound hop.
	path := m.Route(Coord{X: 0}, Coord{X: 7})
	if len(path) != 1 {
		t.Fatalf("torus wrap path length %d, want 1", len(path))
	}
	// From x=0 to x=3 the short way is forward, 3 hops.
	if h := m.Hops(Coord{X: 0}, Coord{X: 3}); h != 3 {
		t.Errorf("torus forward hops = %d, want 3", h)
	}
	// Z dimension (size 4): 0 -> 3 wraps in 1.
	if h := m.Hops(Coord{}, Coord{Z: 3}); h != 1 {
		t.Errorf("torus Z wrap hops = %d, want 1", h)
	}
}

func TestTorusRouteTerminates(t *testing.T) {
	m := T3D()
	f := func(ax, ay, az, bx, by, bz uint8) bool {
		a := Coord{X: int(ax) % 8, Y: int(ay) % 8, Z: int(az) % 4}
		b := Coord{X: int(bx) % 8, Y: int(by) % 8, Z: int(bz) % 4}
		path := m.Route(a, b)
		// Shortest dimension-ordered torus distance.
		want := min(abs(a.X-b.X), 8-abs(a.X-b.X)) +
			min(abs(a.Y-b.Y), 8-abs(a.Y-b.Y)) +
			min(abs(a.Z-b.Z), 4-abs(a.Z-b.Z))
		return len(path) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMsgTime(t *testing.T) {
	c := &CostModel{MsgLatency: 1e-3, ByteTime: 1e-7, HopTime: 1e-5, MemByteTime: 1e-9}
	if got := c.MsgTime(1000, 0); math.Abs(got-1e-6) > 1e-15 {
		t.Errorf("local copy time = %g", got)
	}
	want := 1e-3 + 1000*1e-7 + 2*1e-5
	if got := c.MsgTime(1000, 3); math.Abs(got-want) > 1e-12 {
		t.Errorf("MsgTime = %g, want %g", got, want)
	}
}

func TestNetworkUncontendedTransfer(t *testing.T) {
	m := Paragon()
	n := NewNetwork(m)
	arr := n.Transfer(Coord{X: 0}, Coord{X: 1}, 1000, 5.0)
	want := 5.0 + m.Cost.MsgTime(1000, 1)
	if arr != want {
		t.Errorf("arrival = %g, want %g", arr, want)
	}
	msgs, bytes, contended, wait := n.Stats()
	if msgs != 1 || bytes != 1000 || contended != 0 || wait != 0 {
		t.Errorf("stats = %d %d %d %g", msgs, bytes, contended, wait)
	}
}

func TestNetworkContentionSerializes(t *testing.T) {
	m := Paragon()
	n := NewNetwork(m)
	// Two messages sharing the same directed link at the same time must
	// serialize.
	a1 := n.Transfer(Coord{X: 0}, Coord{X: 2}, 1000, 0)
	a2 := n.Transfer(Coord{X: 0}, Coord{X: 1}, 1000, 0)
	dur := m.Cost.MsgTime(1000, 2)
	if a1 != dur {
		t.Errorf("first arrival %g, want %g", a1, dur)
	}
	if a2 <= a1-1e-12 {
		t.Errorf("second message did not wait: %g vs %g", a2, a1)
	}
	_, _, contended, wait := n.Stats()
	if contended != 1 || wait <= 0 {
		t.Errorf("contention stats = %d, %g", contended, wait)
	}
}

func TestNetworkOppositeDirectionsIndependent(t *testing.T) {
	m := Paragon()
	n := NewNetwork(m)
	a1 := n.Transfer(Coord{X: 0}, Coord{X: 1}, 1000, 0)
	a2 := n.Transfer(Coord{X: 1}, Coord{X: 0}, 1000, 0)
	if a1 != a2 {
		t.Errorf("opposite-direction transfers interfered: %g vs %g", a1, a2)
	}
}

func TestNetworkSelfSend(t *testing.T) {
	m := Paragon()
	n := NewNetwork(m)
	arr := n.Transfer(Coord{X: 1}, Coord{X: 1}, 1000, 2.0)
	if arr != 2.0+1000*m.Cost.MemByteTime {
		t.Errorf("self-send arrival = %g", arr)
	}
}

func TestNetworkReset(t *testing.T) {
	m := Paragon()
	n := NewNetwork(m)
	n.Transfer(Coord{X: 0}, Coord{X: 1}, 10, 0)
	n.Reset()
	if msgs, bytes, _, _ := n.Stats(); msgs != 0 || bytes != 0 {
		t.Error("Reset did not clear stats")
	}
	arr := n.Transfer(Coord{X: 0}, Coord{X: 1}, 10, 0)
	if arr != m.Cost.MsgTime(10, 1) {
		t.Error("Reset did not clear reservations")
	}
}

func TestNaiveVsSnakeAdjacency(t *testing.T) {
	m := Paragon()
	naive := NaivePlacement{Width: 4}
	snake := SnakePlacement{Width: 4}
	const p = 16
	if err := ValidatePlacement(m, naive, p); err != nil {
		t.Fatal(err)
	}
	if err := ValidatePlacement(m, snake, p); err != nil {
		t.Fatal(err)
	}
	// Snake keeps all consecutive ranks at distance 1; naive does not.
	maxNaive, maxSnake := 0, 0
	for r := 0; r+1 < p; r++ {
		dn := m.Hops(naive.Coord(r, p), naive.Coord(r+1, p))
		ds := m.Hops(snake.Coord(r, p), snake.Coord(r+1, p))
		if dn > maxNaive {
			maxNaive = dn
		}
		if ds > maxSnake {
			maxSnake = ds
		}
	}
	if maxSnake != 1 {
		t.Errorf("snake max neighbor distance = %d, want 1", maxSnake)
	}
	if maxNaive <= 1 {
		t.Errorf("naive max neighbor distance = %d, want > 1", maxNaive)
	}
}

func TestSmallPFitsOneRow(t *testing.T) {
	// Up to the partition width, both placements are a single row and
	// identical — the paper's "scalability till 4 processors".
	naive := NaivePlacement{Width: 4}
	snake := SnakePlacement{Width: 4}
	for p := 1; p <= 4; p++ {
		for r := 0; r < p; r++ {
			if naive.Coord(r, p) != snake.Coord(r, p) {
				t.Errorf("p=%d rank %d: naive %v != snake %v", p, r, naive.Coord(r, p), snake.Coord(r, p))
			}
			if naive.Coord(r, p).Y != 0 {
				t.Errorf("p=%d rank %d not in row 0", p, r)
			}
		}
	}
}

func TestLinearPlacementAdjacentOnTorus(t *testing.T) {
	m := T3D()
	pl := LinearPlacement{M: m}
	for _, p := range []int{2, 8, 32, 128, 256} {
		if err := ValidatePlacement(m, pl, p); err != nil {
			t.Fatal(err)
		}
		for r := 0; r+1 < p; r++ {
			if d := m.Hops(pl.Coord(r, p), pl.Coord(r+1, p)); d != 1 {
				t.Fatalf("p=%d: ranks %d,%d at distance %d", p, r, r+1, d)
			}
		}
	}
}

func TestMachinePresets(t *testing.T) {
	if m := Paragon(); m.Nodes() != 64 || m.Topology != Mesh2D {
		t.Errorf("Paragon preset wrong: %+v", m)
	}
	if m := T3D(); m.Nodes() != 256 || m.Topology != Torus3D {
		t.Errorf("T3D preset wrong: %+v", m)
	}
	if m := DEC5000(); m.Nodes() != 1 {
		t.Errorf("DEC5000 preset wrong: %+v", m)
	}
}

func TestValidatePlacementCatchesCollision(t *testing.T) {
	m := Paragon()
	// Width 4 but 65 ranks exceeds the 16-row machine: rank 64 maps to
	// row 16, outside the 4-row machine.
	err := ValidatePlacement(m, NaivePlacement{Width: 4}, 65)
	if err == nil {
		t.Error("oversized placement validated")
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestTransferArrivalProperty(t *testing.T) {
	// Property: arrival >= start + uncontended message time, and repeated
	// transfers over one link are FIFO in completion order.
	m := Paragon()
	f := func(sizes [4]uint16, start uint8) bool {
		n := NewNetwork(m)
		t0 := float64(start) * 1e-3
		last := 0.0
		for _, s := range sizes {
			bytes := int(s) + 1
			arr := n.Transfer(Coord{X: 0}, Coord{X: 1}, bytes, t0)
			if arr < t0+m.Cost.MsgTime(bytes, 1)-1e-12 {
				return false
			}
			if arr <= last {
				return false // same-link transfers must serialize in order
			}
			last = arr
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestDisjointPathsDoNotInteract(t *testing.T) {
	m := Paragon()
	n := NewNetwork(m)
	// Saturate a link in row 0.
	for i := 0; i < 10; i++ {
		n.Transfer(Coord{X: 0, Y: 0}, Coord{X: 1, Y: 0}, 1<<16, 0)
	}
	// A transfer entirely within row 5 is unaffected.
	arr := n.Transfer(Coord{X: 0, Y: 5}, Coord{X: 3, Y: 5}, 100, 0)
	if arr != m.Cost.MsgTime(100, 3) {
		t.Errorf("disjoint transfer delayed: %g vs %g", arr, m.Cost.MsgTime(100, 3))
	}
}

func TestHopsSymmetricOnMesh(t *testing.T) {
	m := Paragon()
	f := func(ax, ay, bx, by uint8) bool {
		a := Coord{X: int(ax) % m.DimX, Y: int(ay) % m.DimY}
		b := Coord{X: int(bx) % m.DimX, Y: int(by) % m.DimY}
		return m.Hops(a, b) == m.Hops(b, a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTopologyAndPlacementNames(t *testing.T) {
	if Mesh2D.String() != "mesh2d" || Torus3D.String() != "torus3d" {
		t.Error("Topology.String wrong")
	}
	if Topology(9).String() == "" {
		t.Error("unknown topology String empty")
	}
	if (NaivePlacement{}).Name() != "naive" || (SnakePlacement{}).Name() != "snake" {
		t.Error("placement names wrong")
	}
	if (Coord{X: 1, Y: 2, Z: 3}).String() != "(1,2,3)" {
		t.Error("Coord.String wrong")
	}
}

func TestMachineByName(t *testing.T) {
	for _, name := range MachineNames() {
		m, err := MachineByName(name)
		if err != nil {
			t.Fatalf("MachineByName(%q): %v", name, err)
		}
		if m.Name != name {
			t.Errorf("MachineByName(%q).Name = %q", name, m.Name)
		}
	}
	_, err := MachineByName("cm5")
	if err == nil {
		t.Fatal("MachineByName accepted an unknown machine")
	}
	for _, name := range MachineNames() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not list preset %q", err, name)
		}
	}
}

func TestTransferInfoReportsWait(t *testing.T) {
	m := Paragon()
	n := NewNetwork(m)
	a := Coord{X: 0, Y: 0}
	b := Coord{X: 3, Y: 0}
	arr1, wait1 := n.TransferInfo(a, b, 1024, 0)
	if wait1 != 0 {
		t.Errorf("first transfer waited %g", wait1)
	}
	// Same path while the first transfer still occupies its links.
	arr2, wait2 := n.TransferInfo(a, b, 1024, 0)
	if wait2 <= 0 {
		t.Errorf("contended transfer reported wait %g", wait2)
	}
	if arr2 <= arr1 {
		t.Errorf("contended arrival %g not after %g", arr2, arr1)
	}
	if got := n.Transfer(a, b, 1024, arr2); got <= arr2 {
		t.Errorf("Transfer arrival %g not after start", got)
	}
}

package estimate

import (
	"errors"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"iddqsyn/internal/bench"
	"iddqsyn/internal/celllib"
	"iddqsyn/internal/circuit"
	"iddqsyn/internal/circuits"
)

// separationOracle is S(M) of §3.3 pair by pair, without the hop table: a
// breadth-first search from each member over Circuit.Neighbors, stopped
// at ρ hops, gives the member's distance to every later member, capped at
// ρ (ρ when the search does not reach it).
func separationOracle(c *circuit.Circuit, gates []int, rho int) int {
	dist := make([]int, c.NumGates())
	sum := 0
	for i, src := range gates {
		for g := range dist {
			dist[g] = -1
		}
		dist[src] = 0
		for queue := []int{src}; len(queue) > 0; queue = queue[1:] {
			g := queue[0]
			if dist[g] >= rho {
				continue
			}
			for _, nb := range c.Neighbors(g) {
				if dist[nb] < 0 {
					dist[nb] = dist[g] + 1
					queue = append(queue, nb)
				}
			}
		}
		for _, dst := range gates[i+1:] {
			if d := dist[dst]; d >= 0 && d < rho {
				sum += d
			} else {
				sum += rho
			}
		}
	}
	return sum
}

// twoCones is a circuit whose logic graph has two components: x and y
// share no path with w and z once primary inputs are left out.
const twoCones = `INPUT(a)
INPUT(b)
INPUT(c)
INPUT(d)
OUTPUT(y)
OUTPUT(z)
x = NAND(a, b)
y = NOT(x)
w = NAND(a, c, d)
z = NOT(w)
`

// SeparationModule must equal the table-free oracle for every ρ on
// clustered and scattered random groups and on a group with a
// disconnected pair. FuzzDeltaCost and partcheck recount S(M) through the
// same hop table, so only an oracle like this one catches a table cut too
// short or weighted wrongly.
func TestSeparationModuleMatchesBFSOracle(t *testing.T) {
	type group struct {
		name  string
		a     *celllib.Annotated
		gates []int
	}
	var groups []group
	rng := rand.New(rand.NewSource(11))
	for _, name := range []string{"c432", "c880", "c1908"} {
		a, err := celllib.Annotate(circuits.MustISCAS85Like(name), celllib.Default())
		if err != nil {
			t.Fatal(err)
		}
		c, logic := a.Circuit, a.Circuit.LogicGates()
		for i := 0; i < 12; i++ {
			size := 2 + rng.Intn(60)
			var gates []int
			if i%2 == 0 {
				// A cluster: the first gates a breadth-first search from a
				// random gate reaches, so most pairs are near.
				start := logic[rng.Intn(len(logic))]
				seen := map[int]bool{start: true}
				for queue := []int{start}; len(queue) > 0 && len(gates) < size; queue = queue[1:] {
					gates = append(gates, queue[0])
					for _, nb := range c.Neighbors(queue[0]) {
						if !seen[nb] {
							seen[nb] = true
							queue = append(queue, nb)
						}
					}
				}
			} else {
				for _, j := range rng.Perm(len(logic))[:size] {
					gates = append(gates, logic[j])
				}
			}
			slices.Sort(gates)
			gates = slices.Compact(gates)
			groups = append(groups, group{name, a, gates})
		}
	}
	c, err := bench.Read(strings.NewReader(twoCones), "twocones")
	if err != nil {
		t.Fatal(err)
	}
	a, err := celllib.Annotate(c, celllib.Default())
	if err != nil {
		t.Fatal(err)
	}
	x, _ := c.GateByName("x")
	w, _ := c.GateByName("w")
	if separationOracle(c, []int{x.ID, w.ID}, 100) != 100 {
		t.Fatal("twocones: x and w are connected; want a disconnected pair")
	}
	groups = append(groups, group{"twocones", a, c.LogicGates()})

	for _, rho := range []int{0, 1, 2, 4, 7} {
		p := DefaultParams()
		p.Rho = rho
		estimators := map[*celllib.Annotated]*Estimator{}
		for _, g := range groups {
			e := estimators[g.a]
			if e == nil {
				e = New(g.a, p)
				estimators[g.a] = e
			}
			if got, want := e.SeparationModule(g.gates), separationOracle(g.a.Circuit, g.gates, rho); got != want {
				t.Errorf("%s, ρ=%d, %d gates: S(M) = %d, oracle %d", g.name, rho, len(g.gates), got, want)
			}
		}
	}
}

// A ρ whose weights ρ − d overflow the table's uint8 must stop New with
// ErrRhoTooLarge instead of corrupting S(M); ρ = 256, the largest that
// fits, still matches the oracle.
func TestRhoAbove256Panics(t *testing.T) {
	a, err := celllib.Annotate(circuits.MustISCAS85Like("c432"), celllib.Default())
	if err != nil {
		t.Fatal(err)
	}
	p := DefaultParams()
	p.Rho = 256
	e := New(a, p)
	gates := a.Circuit.LogicGates()[:40]
	if got, want := e.SeparationModule(gates), separationOracle(a.Circuit, gates, p.Rho); got != want {
		t.Errorf("ρ=256: S(M) = %d, oracle %d", got, want)
	}
	p.Rho = 257
	defer func() {
		err, _ := recover().(error)
		if !errors.Is(err, ErrRhoTooLarge) {
			t.Errorf("New with ρ=257 panicked with %v; want ErrRhoTooLarge", err)
		}
	}()
	New(a, p)
	t.Error("New with ρ=257 returned")
}

// Fuzzing of the checkpoint loader: arbitrary bytes — truncations, bit
// flips, adversarial JSON — must never panic LoadCheckpoint, and any
// bytes it does accept must survive a write/load round trip unchanged.

package evolution

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"iddqsyn/internal/fsx"
)

// fuzzSeedCheckpoint is a minimal structurally valid checkpoint for the
// fuzz corpus (validity here means validate() passes; resuming it would
// additionally need a matching circuit).
func fuzzSeedCheckpoint() *Checkpoint {
	return &Checkpoint{
		Format:  CheckpointFormat,
		Version: CheckpointVersion,
		Circuit: "fuzz",
		Gates:   8,
		Params: Params{
			Mu: 2, Lambda: 1, Chi: 1, Omega: 4,
			MaxMove: 2, Epsilon: 1.0,
			MaxGenerations: 10, StallGenerations: 5, Seed: 1,
		},
		RNGDraws:   17,
		Generation: 3,
		BestCost:   42.5,
		Best:       [][]int{{5, 6}, {7}},
		History:    []float64{44, 43, 42.5},
		Population: []CheckpointIndividual{
			{Groups: [][]int{{5, 6}, {7}}, Cost: 42.5, Age: 1, StepWidth: 2},
			{Groups: [][]int{{5}, {6, 7}}, Cost: 44, Age: 0, StepWidth: 1},
		},
	}
}

func FuzzCheckpointRoundTrip(f *testing.F) {
	valid, err := json.Marshal(fuzzSeedCheckpoint())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte{})
	f.Add([]byte("{"))
	f.Add([]byte(`{"format":"iddqsyn-evolution-checkpoint","version":1}`))
	f.Add([]byte(`{"format":"iddqsyn-evolution-checkpoint","version":1,"best":[[0]],"population":[{"groups":[[0]]}]}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "fuzz.ckpt")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Skip()
		}
		ck, err := LoadCheckpoint(path) // must not panic, whatever the bytes
		if err != nil {
			return
		}
		// Accepted bytes must round-trip bit-identically through the
		// writer (JSON floats are marshalled shortest-round-trip, so
		// DeepEqual over the struct is exact).
		out := filepath.Join(dir, "out.ckpt")
		if err := ck.write(fsx.OS{}, out, nil); err != nil {
			t.Fatalf("accepted checkpoint failed to write back: %v", err)
		}
		ck2, err := LoadCheckpoint(out)
		if err != nil {
			t.Fatalf("round trip failed to load: %v", err)
		}
		if !reflect.DeepEqual(ck, ck2) {
			t.Error("round trip changed the checkpoint")
		}
	})
}

package check

import (
	"testing"

	"linefs/internal/systems"
)

// The suite is a matrix, AllCases() x every system of the table: 30 cases on
// each of the five. Every cell builds a fresh target (one Env per case) and
// package state is written only during init, so rows run in parallel.
// Under -short only LineFS's row runs; the other four are cross-checks of
// the same cases on the baselines and the ablation.
//
// The first four tests are the cells that ran before the matrix was
// complete, under the names tier-1's records know them by;
// TestSuiteOnEverySystem runs every cell they do not.

func suite(t *testing.T, kind systems.Kind, cases []Case) {
	if testing.Short() && kind != systems.LineFS {
		t.Skip("cross-check; LineFS's row covers the cases in -short")
	}
	t.Parallel()
	mk := func() (*Target, error) { return NewTarget(1, kind) }
	for _, c := range cases {
		t.Run(c.Name, func(t *testing.T) {
			if err := RunCase(mk, c); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func generic() []Case { return append(Generic(), genericExtra...) }

func TestGenericSuiteOnLineFS(t *testing.T)    { suite(t, systems.LineFS, generic()) }
func TestCrashSuiteOnLineFS(t *testing.T)      { suite(t, systems.LineFS, CrashCases()) }
func TestGenericSuiteOnAssise(t *testing.T)    { suite(t, systems.Assise, generic()) }
func TestGenericSuiteOnHyperloop(t *testing.T) { suite(t, systems.AssiseHyperloop, generic()) }

func TestSuiteOnEverySystem(t *testing.T) {
	for _, kind := range systems.All() {
		cases := AllCases()
		switch kind {
		case systems.LineFS:
			continue
		case systems.Assise, systems.AssiseHyperloop:
			cases = CrashCases()
		}
		t.Run(kind.Flag(), func(t *testing.T) { suite(t, kind, cases) })
	}
}

package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestGoldenTables pins stdout byte for byte. The goldens were captured from
// the binary of the commit before main was restructured around the column
// list, so they prove that restructuring — and any later one — changes no
// byte; every case runs serially and on all cores, which must agree.
func TestGoldenTables(t *testing.T) {
	for _, tc := range []struct {
		name string
		args string
		exit int
	}{
		// The three acceptance demos CI used to smoke-run: a region-scoped
		// flood against racing clients, the gossip outage, the chaos axes.
		{"regional", "-caches 8 -clients 100000 -residuals 0 -compromised 0 -topology continents -race 1,2 -flood-region eu", 0},
		{"gossip", "-gossip -caches 30 -clients 100000 -residuals=-1 -compromised 0 -fanout 1,3 -gossip-seeds 1 -authority-residual 0 -window 6m", 0},
		{"chaos", "-gossip -caches 12 -clients 50000 -residuals=-1 -compromised 0 -fanout 3 -gossip-seeds 1 -authority-residual 0 -backoff -faults 0,0.3 -churn 0,0.2 -window 10m -target 0.9", 0},
		// The mesh-partition pricing column.
		{"floodseeds", "-gossip -caches 12 -clients 20000 -residuals=0 -compromised 0 -fanout 2 -gossip-seeds 2 -flood-seeds -window 6m", 0},
		// A failing cell (8 seeded caches in a 5-cache tier) costs one ERROR
		// row across all three column groups, and the exit status.
		{"errorrow", "-gossip -caches 5,12 -clients 20000 -residuals=0 -compromised 0 -fanout 2 -gossip-seeds 8 -flood-seeds -backoff -window 6m", 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", tc.name+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []string{"1", "0"} {
				var out bytes.Buffer
				args := append(strings.Fields(tc.args), "-workers", workers)
				if code := run(args, &out, io.Discard); code != tc.exit {
					t.Fatalf("-workers %s: exit %d, want %d", workers, code, tc.exit)
				}
				if !bytes.Equal(out.Bytes(), want) {
					t.Errorf("-workers %s: output differs from testdata/%s.golden:\n%s", workers, tc.name, out.Bytes())
				}
			}
		})
	}
}

// TestContradictoryFloodScopesRejected: a cache-tier flood has one target
// scope. -flood-region with -flood-seeds used to flood the region and still
// print a cutcost column priced for a seed flood; the pair is an error.
func TestContradictoryFloodScopesRejected(t *testing.T) {
	var out, errOut bytes.Buffer
	args := strings.Fields("-gossip -caches 12 -clients 20000 -residuals=0 -compromised 0 -topology continents -flood-region eu -flood-seeds -window 6m")
	if code := run(args, &out, &errOut); code != 1 {
		t.Errorf("exit %d, want 1", code)
	}
	if want := `cachesweep: -flood-region "eu" contradicts -flood-seeds`; !strings.Contains(errOut.String(), want) {
		t.Errorf("stderr %q does not contain %q", errOut.String(), want)
	}
	if out.Len() != 0 {
		t.Errorf("a rejected invocation printed a table:\n%s", out.Bytes())
	}
}

// TestNaNAxesRejected: a NaN residual or fraction is an error, not a cell run
// unattacked or uncompromised; so is a window, target or seed the spec would
// replace with its default.
func TestNaNAxesRejected(t *testing.T) {
	for _, arg := range []string{
		"-residuals=0,NaN", "-compromised=NaN", "-authority-residual=NaN",
		"-window=0", "-window=-5m", "-target=0", "-target=NaN", "-target=1.5", "-seed=0",
	} {
		var out, errOut bytes.Buffer
		if code := run([]string{"-caches", "5", "-clients", "20000", arg}, &out, &errOut); code != 1 || out.Len() != 0 {
			t.Errorf("%s: exit %d, want 1 and no table (stderr %q)", arg, code, errOut.String())
		}
	}
}

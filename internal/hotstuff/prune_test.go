package hotstuff

import (
	"testing"
	"time"
)

// TestPacemakerStateBoundedAcrossTimedOutViews drives every replica through
// hundreds of views that each end in a timeout certificate (no leader ever
// has an input, so nothing is proposed, voted or decided) and checks that a
// replica's per-view records do not pile up behind it: what a left view
// held for the pacemaker can never be read again and must be gone.
func TestPacemakerStateBoundedAcrossTimedOutViews(t *testing.T) {
	const views = 200
	reps, tn := build(t, 4, 11, func(cfg *Config) {
		cfg.Propose = func(index, view int) Value { return nil }
		cfg.BaseTimeout = time.Second
	})
	tn.Run(views * DefaultMaxTimeout)
	for i, r := range reps {
		if r.decided {
			t.Fatalf("replica %d decided; the test needs views that only time out", i)
		}
		if r.View() < views {
			t.Fatalf("replica %d reached view %d, want >= %d timed-out views", i, r.View(), views)
		}
		pacemaker := 0
		for _, vs := range r.views {
			if vs.shares > 0 || vs.tcFormed || vs.sentTimeout {
				pacemaker++
			}
		}
		// The current view, plus at most a view a faster peer already
		// timed out of.
		if pacemaker > 2 || len(r.views) > 2 {
			t.Errorf("replica %d in view %d holds %d per-view records, %d with pacemaker state; want <= 2",
				i, r.View(), len(r.views), pacemaker)
		}
	}
}

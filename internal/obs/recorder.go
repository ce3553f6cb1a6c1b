package obs

import (
	"bufio"
	"encoding/json"
	"io"
	"os"
)

// DefaultRecorderCap is the ring capacity NewRecorder(0) selects. At the
// kernel's default one-second sample cadence a full four-layer run emits a
// few events per node per simulated second; 64k events keep the tail of
// even a long flood scenario while bounding a recorder to a few MiB.
const DefaultRecorderCap = 1 << 16

// Recorder is a ring-buffered event sink: it keeps the most recent
// `capacity` events and counts what it had to drop. The ring stores events
// by value, so steady-state recording does not allocate.
//
// A Recorder is not safe for concurrent use; give each concurrently
// running simulation its own (the simulations themselves are
// single-threaded, so one recorder per run is the natural shape).
type Recorder struct {
	buf     []Event
	start   int
	n       int
	dropped int64
}

// NewRecorder returns a recorder keeping the last `capacity` events
// (capacity <= 0 selects DefaultRecorderCap).
func NewRecorder(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultRecorderCap
	}
	return &Recorder{buf: make([]Event, 0, capacity)}
}

// Event records ev, evicting the oldest event when the ring is full.
func (r *Recorder) Event(ev Event) {
	if r.n < cap(r.buf) {
		r.buf = append(r.buf, ev)
		r.n++
		return
	}
	r.buf[r.start] = ev
	r.start = (r.start + 1) % r.n
	r.dropped++
}

// Len returns the number of events currently held.
func (r *Recorder) Len() int { return r.n }

// Dropped returns how many events the full ring evicted.
func (r *Recorder) Dropped() int64 { return r.dropped }

// Events returns the recorded events, oldest first, as a fresh slice.
func (r *Recorder) Events() []Event {
	out := make([]Event, 0, r.n)
	out = append(out, r.buf[r.start:]...)
	out = append(out, r.buf[:r.start]...)
	return out
}

// WriteJSONL streams the recorded events to w, one JSON object per line,
// oldest first.
func (r *Recorder) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, ev := range r.Events() {
		if err := enc.Encode(ev); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// WriteChromeTrace renders the recorded events as a Chrome trace
// (WriteChromeTrace over Events).
func (r *Recorder) WriteChromeTrace(w io.Writer) error { return WriteChromeTrace(w, r.Events()) }

// WriteFile creates (or truncates) the file at path, hands it to write — a
// Recorder's WriteChromeTrace or WriteJSONL — and closes it, returning the
// first error of the three: an export that did not reach the disk must not
// pass for a written one. The *os.File errors name the path.
func WriteFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	werr := write(f)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	return werr
}

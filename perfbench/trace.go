package main

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// Span is one timed call into a layer. Name is "<layer>.<call>"; Trace
// groups the spans of one trial or one shard; Parent is the ID of the span
// that caused this one (0 for a root). Start and End are nanoseconds since
// the recorder's base instant.
type Span struct {
	ID, Parent, Trace uint64
	Start, End        int64
	Name              string
}

// Dur returns the span's duration in nanoseconds.
func (s Span) Dur() int64 { return s.End - s.Start }

// Layer returns the span's layer: the part of its name before the first dot.
func (s Span) Layer() string {
	if i := strings.IndexByte(s.Name, '.'); i >= 0 {
		return s.Name[:i]
	}
	return s.Name
}

// Recorder keeps every span of a run in memory. Each goroutine that records
// owns a Buf, so appends never contend; span IDs encode (buffer, index) and
// are dense after Spans flattens the buffers.
type Recorder struct {
	base time.Time
	mu   sync.Mutex
	bufs []*Buf
}

// NewRecorder starts a recorder whose clock reads 0 now.
func NewRecorder() *Recorder { return &Recorder{base: time.Now()} }

// Now returns nanoseconds since the recorder's base instant.
func (r *Recorder) Now() int64 { return int64(time.Since(r.base)) }

// NewBuf registers a span buffer for one recording goroutine.
func (r *Recorder) NewBuf() *Buf {
	r.mu.Lock()
	defer r.mu.Unlock()
	b := &Buf{id: uint64(len(r.bufs) + 1)}
	r.bufs = append(r.bufs, b)
	return b
}

// Buf is one goroutine's span buffer. Its mutex is uncontended except when a
// helper goroutine (an HTTP heartbeat) records into its owner's buffer.
type Buf struct {
	id    uint64
	mu    sync.Mutex
	spans []Span
	next  uint64
}

// NewID reserves a span ID in this buffer; Record or Put fills the span in.
func (b *Buf) NewID() uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.reserveLocked()
}

func (b *Buf) reserveLocked() uint64 {
	b.next++
	b.spans = append(b.spans, Span{})
	return b.id<<32 | b.next
}

// Record appends a finished span and returns its ID.
func (b *Buf) Record(name string, trace, parent uint64, start, end int64) uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	id := b.reserveLocked()
	b.spans[len(b.spans)-1] = Span{ID: id, Parent: parent, Trace: trace, Start: start, End: end, Name: name}
	return id
}

// Put fills in a span whose ID was reserved with NewID.
func (b *Buf) Put(id uint64, name string, trace, parent uint64, start, end int64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.spans[id&(1<<32-1)-1] = Span{ID: id, Parent: parent, Trace: trace, Start: start, End: end, Name: name}
}

// Reparent moves an already recorded span under parent in trace.
func (b *Buf) Reparent(id, trace, parent uint64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	s := &b.spans[id&(1<<32-1)-1]
	s.Trace, s.Parent = trace, parent
}

// Len returns how many spans (and reserved IDs) the recorder holds.
func (r *Recorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, b := range r.bufs {
		b.mu.Lock()
		n += len(b.spans)
		b.mu.Unlock()
	}
	return n
}

// Start returns the start of a recorded span.
func (b *Buf) Start(id uint64) int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.spans[id&(1<<32-1)-1].Start
}

// Spans flattens every buffer into one slice, dropping IDs that were
// reserved but never filled in.
func (r *Recorder) Spans() []Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []Span
	for _, b := range r.bufs {
		b.mu.Lock()
		for _, s := range b.spans {
			if s.ID != 0 {
				out = append(out, s)
			}
		}
		b.mu.Unlock()
	}
	return out
}

// SelfTimes returns each span's self time: its duration minus the part of
// its interval that the union of its children's intervals covers. Children
// that run concurrently (trials on parallel workers) are counted once.
func SelfTimes(spans []Span) []int64 {
	// Index only the spans that are someone's parent: leaves are the bulk.
	index := map[uint64]int{}
	for _, s := range spans {
		if s.Parent != 0 {
			index[s.Parent] = -1
		}
	}
	for i, s := range spans {
		if _, ok := index[s.ID]; ok {
			index[s.ID] = i
		}
	}
	type child struct {
		parent     int
		start, end int64
	}
	var kids []child
	for _, s := range spans {
		if p := index[s.Parent]; s.Parent != 0 && p >= 0 {
			kids = append(kids, child{p, s.Start, s.End})
		}
	}
	sort.Slice(kids, func(i, j int) bool {
		if kids[i].parent != kids[j].parent {
			return kids[i].parent < kids[j].parent
		}
		return kids[i].start < kids[j].start
	})
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.Dur()
	}
	for i := 0; i < len(kids); {
		p := kids[i].parent
		lo, hi := spans[p].Start, spans[p].End
		var covered int64
		curS, curE := int64(0), int64(0)
		open := false
		for ; i < len(kids) && kids[i].parent == p; i++ {
			s, e := max(kids[i].start, lo), min(kids[i].end, hi)
			if e <= s {
				continue
			}
			switch {
			case !open:
				curS, curE, open = s, e, true
			case s <= curE:
				curE = max(curE, e)
			default:
				covered += curE - curS
				curS, curE = s, e
			}
		}
		if open {
			covered += curE - curS
		}
		self[p] -= covered
	}
	return self
}

// LayerSelf sums self time per layer.
func LayerSelf(spans []Span, self []int64) map[string]int64 {
	out := map[string]int64{}
	for i, s := range spans {
		out[s.Layer()] += self[i]
	}
	return out
}

// Percentile returns the p-th percentile (0 ≤ p ≤ 100) of xs by linear
// interpolation between the closest ranks; xs need not be sorted and is not
// modified. An empty input gives 0.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// Median is Percentile(xs, 50).
func Median(xs []float64) float64 { return Percentile(xs, 50) }

// WriteSpans writes spans as gzip-compressed tab-separated lines
// (trace, id, parent, name, start_ns, end_ns) to path, creating its
// directory.
func WriteSpans(path string, spans []Span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw, err := gzip.NewWriterLevel(f, gzip.BestSpeed)
	if err != nil {
		f.Close()
		return err
	}
	w := bufio.NewWriter(zw)
	fmt.Fprintln(w, "trace\tid\tparent\tname\tstart_ns\tend_ns")
	for _, s := range spans {
		fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%d\t%d\n", s.Trace, s.ID, s.Parent, s.Name, s.Start, s.End)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

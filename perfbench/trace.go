package main

import (
	"bufio"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"time"

	"github.com/ada-repro/ada/internal/core"
	"github.com/ada-repro/ada/internal/serve"
)

// Span names, one per layer boundary the traced run times from outside.
const (
	spanTick    = "bench.tick"
	spanWindow  = "bench.window"
	spanServe   = "serve.Tick"
	spanSync    = "core.SyncTenants"
	spanObserve = "monitor.ObserveAll"
	spanEval    = "arith.EvalBatchInto"
)

// span is one timed call. Times are nanoseconds since the recorder's base;
// parent is the index of the enclosing span (-1 for a root); ops counts the
// operands (or, for core.SyncTenants, the tenants) the call handled.
type span struct {
	Name   string `json:"name"`
	Tick   int    `json:"tick"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Ops    int    `json:"ops"`
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder keeps spans in memory; write dumps them when the run ends. A nil
// recorder records nothing, which is how the untraced passes run.
type recorder struct {
	base  time.Time
	tick  int
	open  int // innermost open serve.Tick span, parent of SyncTenants
	spans []span
}

func newRecorder() *recorder { return &recorder{base: time.Now(), open: -1} }

func (r *recorder) begin(name string, parent, ops int) int {
	if r == nil {
		return -1
	}
	r.spans = append(r.spans, span{Name: name, Tick: r.tick, Parent: parent,
		Start: int64(time.Since(r.base)), Ops: ops})
	return len(r.spans) - 1
}

func (r *recorder) end(i int) {
	if r == nil || i < 0 {
		return
	}
	r.spans[i].End = int64(time.Since(r.base))
}

// reserve grows the span buffer so the next n spans append without
// allocating (the traced data-plane loop counts allocations).
func (r *recorder) reserve(n int) {
	if r == nil || cap(r.spans)-len(r.spans) >= n {
		return
	}
	grown := make([]span, len(r.spans), 2*cap(r.spans)+n)
	copy(grown, r.spans)
	r.spans = grown
}

// write stores the spans as JSON lines.
func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedCluster is the serve.Cluster the traced run hands to
// serve.NewServer: it forwards to the registry and records each
// SyncTenants call as a child of the serve.Tick span that made it.
type tracedCluster struct {
	reg *core.Registry
	rec *recorder
}

var _ serve.Cluster = (*tracedCluster)(nil)

func (c *tracedCluster) SyncTenants(ctx context.Context, names []string) (map[string]core.SyncReport, error) {
	i := c.rec.begin(spanSync, c.rec.open, len(names))
	reps, err := c.reg.SyncTenants(ctx, names)
	c.rec.end(i)
	return reps, err
}

func (c *tracedCluster) FindTenant(name string) (*core.Tenant, bool) {
	return c.reg.FindTenant(name)
}

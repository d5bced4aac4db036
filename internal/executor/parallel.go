package executor

import (
	"runtime"

	"repro/internal/storage"
	"repro/internal/workpool"
)

// Fault-injection probe points inside parallel worker goroutines. They
// fire at the start of each chunk or partition task, so tests can inject
// failures and panics into the middle of a parallel operator and assert
// clean shutdown.
const (
	// PointScanChunk fires in the worker goroutine at the start of each
	// parallel scan chunk.
	PointScanChunk = "executor.scan.chunk"
	// PointJoinChunk fires in the worker goroutine at the start of each
	// parallel join task: a hash-join probe chunk or a nested-loops outer
	// chunk.
	PointJoinChunk = "executor.join.chunk"
)

// minChunkRows is the smallest chunk a parallel operator will create:
// below this, per-chunk bookkeeping dominates the row work.
const minChunkRows = 64

// resolveWorkers returns the parallelism degree for this executor:
// SetWorkers wins, then the governor's Limits.Workers, then GOMAXPROCS.
func (e *Executor) resolveWorkers() int {
	if e.workers > 0 {
		return e.workers
	}
	if w := e.gov.Workers(); w > 0 {
		return w
	}
	return runtime.GOMAXPROCS(0)
}

// chunkRanges splits [0, n) into contiguous [start, end) ranges of at
// least minChunkRows (except the remainder), targeting a few chunks per
// worker so stragglers rebalance.
func chunkRanges(n, workers int) [][2]int {
	if n <= 0 {
		return nil
	}
	target := workers * 4
	size := (n + target - 1) / target
	if size < minChunkRows {
		size = minChunkRows
	}
	out := make([][2]int, 0, (n+size-1)/size)
	for start := 0; start < n; start += size {
		end := start + size
		if end > n {
			end = n
		}
		out = append(out, [2]int{start, end})
	}
	return out
}

// chunked runs body over rows [0, n): serially into one output table when
// a single worker or chunk suffices, else chunk-parallel on the worker
// pool with point probed at the start of each chunk task. Each chunk
// writes a local output with local counters; outputs concatenate in chunk
// order and counters fold into stats, so the result is row-for-row
// identical to the serial run, and every chunk ticks the shared governor
// so budget accounting stays exact.
func (e *Executor) chunked(n int, name string, schema *storage.Schema, point string, stats *Stats,
	body func(out *storage.Table, start, end int, stats *Stats) error) (*storage.Table, error) {
	workers := e.resolveWorkers()
	ranges := chunkRanges(n, workers)
	if workers <= 1 || len(ranges) <= 1 {
		out := storage.NewTable(name, schema)
		if err := body(out, 0, n, stats); err != nil {
			return nil, err
		}
		return out, nil
	}
	outs := make([]*storage.Table, len(ranges))
	locals := make([]Stats, len(ranges))
	err := workpool.Run(workers, len(ranges), func(i int) error {
		if err := e.probe(point); err != nil {
			return err
		}
		outs[i] = storage.NewTable(name, schema)
		return body(outs[i], ranges[i][0], ranges[i][1], &locals[i])
	})
	if err != nil {
		return nil, err
	}
	out := outs[0]
	for _, t := range outs[1:] {
		if err := out.AppendTable(t); err != nil {
			return nil, err
		}
	}
	for i := range locals {
		stats.Add(locals[i])
	}
	return out, nil
}

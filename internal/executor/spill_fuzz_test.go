package executor

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/catalog"
	"repro/internal/governor"
	"repro/internal/storage"
)

// fuzzRunSchema covers every column type the spill codec encodes.
var fuzzRunSchema = storage.MustSchema(
	storage.ColumnDef{Name: "i", Type: storage.TypeInt64},
	storage.ColumnDef{Name: "f", Type: storage.TypeFloat64},
	storage.ColumnDef{Name: "b", Type: storage.TypeBool},
	storage.ColumnDef{Name: "s", Type: storage.TypeString},
)

// spillFrame wraps a payload in the run-file frame spillWriter.flush
// writes: u32 payload length, u32 IEEE crc32, payload.
func spillFrame(payload []byte) []byte {
	frame := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
	frame = binary.LittleEndian.AppendUint32(frame, crc32.ChecksumIEEE(payload))
	return append(frame, payload...)
}

// FuzzSpillRun feeds arbitrary bytes to the spill-run reader and row
// decoder as a run file. Every input either fails with an error wrapping
// governor.ErrMemory, or decodes to rows that encodeRow turns back into
// exactly the same payload. It never panics, and decoding allocates in
// proportion to the frame length, never to a length prefix inside it.
func FuzzSpillRun(f *testing.F) {
	tbl := storage.NewTable("seed", fuzzRunSchema)
	for _, row := range [][]storage.Value{
		{storage.Int64(-7), storage.Float64(math.Copysign(0, -1)), storage.Bool(true), storage.String64("spill")},
		{storage.Null(storage.TypeInt64), storage.Float64(math.Inf(1)), storage.Null(storage.TypeBool), storage.String64("")},
		{storage.Int64(math.MaxInt64), storage.Null(storage.TypeFloat64), storage.Bool(false), storage.Null(storage.TypeString)},
	} {
		if err := tbl.AppendRow(row...); err != nil {
			f.Fatal(err)
		}
	}
	var payload []byte
	for r := 0; r < tbl.NumRows(); r++ {
		payload = encodeRow(payload, tbl, r)
	}
	f.Add(payload)
	f.Add(spillFrame(payload))

	e := NewGoverned(catalog.New(), governor.New(context.Background(), governor.Limits{}))
	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, data []byte) {
		// As a run file, data exercises the frame checks; wrapped in a valid
		// frame, it reaches the row decoder whatever its bytes.
		for _, file := range [][]byte{data, spillFrame(data)} {
			checkSpillRun(t, e, filepath.Join(dir, "run"+SpillSuffix), file)
		}
	})
}

// checkSpillRun writes file as a spill run, reads and decodes it, and
// checks FuzzSpillRun's properties.
func checkSpillRun(t *testing.T, e *Executor, path string, file []byte) {
	if err := os.WriteFile(path, file, 0o644); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	payload, err := e.readSpillRun(path)
	if err == nil {
		err = decodeRun(payload, fuzzRunSchema, func([]storage.Value) error { return nil })
	}
	runtime.ReadMemStats(&after)
	// os.ReadFile's buffer, plus at most one small allocation per decoded
	// string (each costs at least its 5 encoded bytes).
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > uint64(8*len(file))+64<<10 {
		t.Fatalf("decoding a %d-byte run allocated %d bytes", len(file), alloc)
	}
	if err != nil {
		if !errors.Is(err, governor.ErrMemory) {
			t.Fatalf("error %v does not wrap ErrMemory", err)
		}
		return
	}
	got := storage.NewTable("run", fuzzRunSchema)
	if err := decodeRun(payload, fuzzRunSchema, func(vals []storage.Value) error {
		return got.AppendRow(vals...)
	}); err != nil {
		t.Fatalf("second decode of an accepted run failed: %v", err)
	}
	var re []byte
	for r := 0; r < got.NumRows(); r++ {
		re = encodeRow(re, got, r)
	}
	if !bytes.Equal(re, payload) {
		t.Fatalf("run does not round-trip: payload %x, re-encoded %x", payload, re)
	}
}

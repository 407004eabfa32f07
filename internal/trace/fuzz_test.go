package trace

import (
	"bytes"
	"testing"
)

// FuzzTraceCodec decodes arbitrary bytes as a .mltr trace: NewReader and
// ReadAll must never panic, and every record they decode, also the ones
// before a decoding error, must re-encode and decode back unchanged. The
// seeds under testdata/fuzz/FuzzTraceCodec hold a generated trace and
// damaged variants of it (truncated, bad magic, version, kind, size and
// dependency distance).
func FuzzTraceCodec(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := NewReader(bytes.NewReader(data))
		if err != nil {
			return
		}
		recs, _ := r.ReadAll()
		var buf bytes.Buffer
		w, err := NewWriter(&buf)
		if err != nil {
			t.Fatal(err)
		}
		for i, rec := range recs {
			if err := w.Write(rec); err != nil {
				t.Fatalf("decoded record %d %+v does not re-encode: %v", i, rec, err)
			}
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		r2, err := NewReader(&buf)
		if err != nil {
			t.Fatal(err)
		}
		again, err := r2.ReadAll()
		if err != nil {
			t.Fatalf("re-encoded trace does not decode: %v", err)
		}
		if len(again) != len(recs) {
			t.Fatalf("re-encoded trace decodes to %d records, want %d", len(again), len(recs))
		}
		for i := range recs {
			if again[i] != recs[i] {
				t.Fatalf("record %d: %+v re-decodes as %+v", i, recs[i], again[i])
			}
		}
	})
}

package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"

	"malec/internal/mem"
)

func TestCodecRoundTrip(t *testing.T) {
	recs := []Record{
		{Kind: Op},
		{Kind: Op, Dep1: 3, Dep2: 1},
		{Kind: Load, Addr: 0x12345678, Size: 8, Dep1: 2},
		{Kind: Store, Addr: 0xfffffff8, Size: 16},
		{Kind: Branch, Mispredict: true, Dep1: 1},
		{Kind: Branch, Mispredict: false, Dep2: 1},
	}
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if w.Count() != uint64(len(recs)) {
		t.Fatalf("Count = %d", w.Count())
	}
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("decoded %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		if got[i] != recs[i] {
			t.Errorf("record %d = %+v, want %+v", i, got[i], recs[i])
		}
	}
}

func TestCodecRoundTripProperty(t *testing.T) {
	f := func(kind uint8, addr uint64, size uint8, d1, d2 uint16, misp bool) bool {
		rec := Record{Kind: Kind(kind % 4), Dep1: d1, Dep2: d2}
		if rec.IsMem() {
			rec.Addr = mem.Addr(addr).Canon()
			rec.Size = 1 + size%maxAccessSize
		}
		if rec.Kind == Branch {
			rec.Mispredict = misp
		}
		var buf bytes.Buffer
		w, _ := NewWriter(&buf)
		if err := w.Write(rec); err != nil {
			return false
		}
		w.Flush()
		r, err := NewReader(&buf)
		if err != nil {
			return false
		}
		got, err := r.Read()
		return err == nil && got == rec
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCodecBadMagic(t *testing.T) {
	_, err := NewReader(bytes.NewReader([]byte("NOPE1234")))
	if !errors.Is(err, ErrBadMagic) {
		t.Fatalf("err = %v, want ErrBadMagic", err)
	}
}

func TestCodecTruncation(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	w.Write(Record{Kind: Load, Addr: 0x1000, Size: 8})
	w.Flush()
	data := buf.Bytes()
	r, err := NewReader(bytes.NewReader(data[:len(data)-1]))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Read(); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("err = %v, want ErrUnexpectedEOF", err)
	}
}

// TestCodecDepOutOfRange feeds the reader records whose dependency
// distances sit at and just past the top of a Record's uint16 fields: 65535
// must round-trip, and anything larger must fail with an error naming the
// distance, not wrap 65537 into a real but wrong dependency of 1.
func TestCodecDepOutOfRange(t *testing.T) {
	encode := func(d1, d2 uint64) *bytes.Buffer {
		var buf bytes.Buffer
		w, _ := NewWriter(&buf)
		w.Flush()
		buf.WriteByte(byte(Op))
		buf.Write(binary.AppendUvarint(nil, d1))
		buf.Write(binary.AppendUvarint(nil, d2))
		return &buf
	}
	r, err := NewReader(encode(math.MaxUint16, math.MaxUint16))
	if err != nil {
		t.Fatal(err)
	}
	if rec, err := r.Read(); err != nil || rec != (Record{Kind: Op, Dep1: math.MaxUint16, Dep2: math.MaxUint16}) {
		t.Errorf("deps 65535 decoded as %+v, %v", rec, err)
	}
	for _, deps := range [][2]uint64{{1 << 16, 0}, {0, 1 << 16}, {1<<16 + 1, 0}, {1<<32 + 1, 0}} {
		r, err := NewReader(encode(deps[0], deps[1]))
		if err != nil {
			t.Fatal(err)
		}
		rec, err := r.Read()
		if err == nil {
			t.Errorf("deps %v decoded as %+v, want an error", deps, rec)
			continue
		}
		if bad := max(deps[0], deps[1]); !strings.Contains(err.Error(), strconv.FormatUint(bad, 10)) {
			t.Errorf("deps %v: error %q does not name %d", deps, err, bad)
		}
	}
}

// TestRecordIsSixteenBytes pins the packed record: the trace-cache arenas,
// cpu.GenSource's ring and every ROB entry hold records by value, so a
// field reordering that brings back padding doubles them.
func TestRecordIsSixteenBytes(t *testing.T) {
	if got := unsafe.Sizeof(Record{}); got != 16 {
		t.Fatalf("unsafe.Sizeof(Record{}) = %d, want 16", got)
	}
}

// TestCodecSizeOutOfRange checks that memory records with a Size outside
// 1..16 are refused on both sides of the codec: the writer writes nothing
// for them, and the reader fails on an encoded one instead of handing the
// store buffer a 0-byte or oversized access.
func TestCodecSizeOutOfRange(t *testing.T) {
	for _, kind := range []Kind{Load, Store} {
		for _, size := range []uint8{0, 17, 255} {
			var buf bytes.Buffer
			w, _ := NewWriter(&buf)
			if err := w.Write(Record{Kind: kind, Addr: 0x1000, Size: size}); err == nil {
				t.Errorf("Write accepted a %v of size %d", kind, size)
			}
			if w.Flush(); w.Count() != 0 {
				t.Errorf("Write counted a refused %v of size %d", kind, size)
			}
			buf.WriteByte(byte(kind))
			buf.Write(binary.AppendUvarint(nil, 0x1000))
			buf.WriteByte(size)
			buf.Write([]byte{0, 0}) // dep1, dep2
			r, err := NewReader(&buf)
			if err != nil {
				t.Fatal(err)
			}
			if rec, err := r.Read(); err == nil {
				t.Errorf("%v of size %d decoded as %+v, want an error", kind, size, rec)
			}
		}
	}
}

func TestCodecCleanEOF(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	w.Flush()
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Read(); !errors.Is(err, io.EOF) {
		t.Fatalf("err = %v, want io.EOF", err)
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	p := Profiles["gzip"]
	a := NewGenerator(p, 5).Generate(5000)
	b := NewGenerator(p, 5).Generate(5000)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("records diverge at %d", i)
		}
	}
	c := NewGenerator(p, 6).Generate(100)
	same := 0
	for i := range c {
		if c[i] == a[i] {
			same++
		}
	}
	if same == len(c) {
		t.Fatal("different seeds produced identical traces")
	}
}

func TestGeneratorStatsMatchProfile(t *testing.T) {
	for _, name := range []string{"gzip", "swim", "djpeg"} {
		p := Profiles[name]
		g := NewGenerator(p, 1)
		var st Stats
		for i := 0; i < 200000; i++ {
			st.Observe(g.Next())
		}
		if got := st.MemRatio(); math.Abs(got-p.MemRatio) > 0.01 {
			t.Errorf("%s mem ratio %v, profile %v", name, got, p.MemRatio)
		}
		wantLS := p.LoadFrac / (1 - p.LoadFrac)
		if got := st.LoadStoreRatio(); math.Abs(got-wantLS)/wantLS > 0.1 {
			t.Errorf("%s ld/st ratio %v, want ~%v", name, got, wantLS)
		}
	}
}

func TestGeneratorAddressesWithinWorkingSet(t *testing.T) {
	p := Profiles["gzip"]
	g := NewGenerator(p, 2)
	pages := map[mem.PageID]bool{}
	for i := 0; i < 50000; i++ {
		r := g.Next()
		if r.IsMem() {
			pages[r.Addr.Page()] = true
			if int(r.Addr.Page()) >= p.WorkingSetPages {
				t.Fatalf("address %v outside working set (%d pages)", r.Addr, p.WorkingSetPages)
			}
			if r.Size == 0 || r.Size > 16 {
				t.Fatalf("bad access size %d", r.Size)
			}
		}
	}
	if len(pages) == 0 {
		t.Fatal("no pages touched")
	}
}

func TestGeneratorDepsBounded(t *testing.T) {
	p := Profiles["mcf"]
	g := NewGenerator(p, 3)
	for i := uint64(0); i < 50000; i++ {
		r := g.Next()
		for _, d := range []uint16{r.Dep1, r.Dep2} {
			if d != 0 && uint64(d) > i {
				t.Fatalf("record %d dep distance %d reaches before trace start", i, d)
			}
			if d > uint16(p.DepWindow) {
				t.Fatalf("dep distance %d exceeds window %d", d, p.DepWindow)
			}
		}
	}
}

func TestGeneratorPageLocalityOrdering(t *testing.T) {
	// A high-SamePageProb profile must show more direct same-page
	// neighbours than a low one.
	hi := Profiles["djpeg"]
	lo := Profiles["mcf"]
	frac := func(p Profile) float64 {
		g := NewGenerator(p, 4)
		var prev mem.Addr
		havePrev := false
		same, total := 0, 0
		for i := 0; i < 100000; i++ {
			r := g.Next()
			if r.Kind != Load {
				continue
			}
			if havePrev {
				total++
				if mem.SamePage(prev, r.Addr) {
					same++
				}
			}
			prev, havePrev = r.Addr, true
		}
		return float64(same) / float64(total)
	}
	if fh, fl := frac(hi), frac(lo); fh <= fl {
		t.Fatalf("page locality ordering violated: djpeg %v <= mcf %v", fh, fl)
	}
}

func TestProfilesComplete(t *testing.T) {
	names := AllBenchmarks()
	if len(names) != 38 {
		t.Fatalf("%d benchmarks, want 38 (12 INT + 14 FP + 12 MB2)", len(names))
	}
	for _, n := range names {
		p, ok := Profiles[n]
		if !ok {
			t.Fatalf("missing profile %q", n)
		}
		if p.Name != n {
			t.Fatalf("profile %q has Name %q", n, p.Name)
		}
		if p.MemRatio <= 0 || p.MemRatio >= 1 {
			t.Fatalf("%s: bad MemRatio %v", n, p.MemRatio)
		}
		if p.Suite != SuiteSpecInt && p.Suite != SuiteSpecFP && p.Suite != SuiteMB2 {
			t.Fatalf("%s: bad suite %q", n, p.Suite)
		}
	}
}

func TestMispredictRates(t *testing.T) {
	// Branches and mispredictions must occur at roughly the profiled rate.
	p := Profiles["gzip"]
	g := NewGenerator(p, 9)
	branches, misp := 0, 0
	n := 200000
	for i := 0; i < n; i++ {
		r := g.Next()
		if r.Kind == Branch {
			branches++
			if r.Mispredict {
				misp++
			}
		}
	}
	if branches == 0 {
		t.Fatal("no branches generated")
	}
	gotRate := float64(misp) / float64(branches)
	if math.Abs(gotRate-p.MispredictProb) > 0.02 {
		t.Fatalf("mispredict rate %v, profile %v", gotRate, p.MispredictProb)
	}
}

func TestRecordAccessConversion(t *testing.T) {
	r := Record{Kind: Load, Addr: 0x1000, Size: 8}
	a := r.Access(42)
	if a.Seq != 42 || a.Kind != mem.Load || a.VA != 0x1000 || a.Size != 8 {
		t.Fatalf("Access conversion wrong: %+v", a)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Access on Op should panic")
		}
	}()
	Record{Kind: Op}.Access(1)
}

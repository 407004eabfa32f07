package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"malec/internal/mem"
)

// Binary trace format:
//
//	magic   [4]byte "MLTR"
//	version uvarint (currently 1)
//	records:
//	  kind   byte
//	  for Load/Store: addr uvarint, size byte
//	  for Branch: flags byte (bit0 = mispredicted)
//	  dep1   uvarint
//	  dep2   uvarint
//
// The format is self-delimiting; readers stop at io.EOF.

var magic = [4]byte{'M', 'L', 'T', 'R'}

// formatVersion is the current trace format version.
const formatVersion = 1

// ErrBadMagic is returned when a trace stream does not start with the
// expected magic bytes.
var ErrBadMagic = errors.New("trace: bad magic (not a MALEC trace)")

// Writer encodes records to an underlying stream.
type Writer struct {
	w   *bufio.Writer
	buf [binary.MaxVarintLen64]byte
	n   uint64
}

// NewWriter returns a Writer that writes the trace header immediately.
func NewWriter(w io.Writer) (*Writer, error) {
	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := bw.Write(magic[:]); err != nil {
		return nil, fmt.Errorf("trace: writing magic: %w", err)
	}
	tw := &Writer{w: bw}
	if err := tw.uvarint(formatVersion); err != nil {
		return nil, err
	}
	return tw, nil
}

func (w *Writer) uvarint(v uint64) error {
	n := binary.PutUvarint(w.buf[:], v)
	_, err := w.w.Write(w.buf[:n])
	return err
}

// maxAccessSize bounds a memory record's Size: accesses are 1..16 bytes.
const maxAccessSize = 16

// checkSize rejects a memory access size outside 1..maxAccessSize.
func checkSize(size uint8) error {
	if size == 0 || size > maxAccessSize {
		return fmt.Errorf("trace: memory access size %d out of range 1..%d", size, maxAccessSize)
	}
	return nil
}

// Write encodes one record. A memory record whose Size is outside 1..16 is
// rejected before anything is written.
func (w *Writer) Write(r Record) error {
	if r.IsMem() {
		if err := checkSize(r.Size); err != nil {
			return err
		}
	}
	if err := w.w.WriteByte(byte(r.Kind)); err != nil {
		return err
	}
	if r.IsMem() {
		if err := w.uvarint(uint64(r.Addr.Canon())); err != nil {
			return err
		}
		if err := w.w.WriteByte(r.Size); err != nil {
			return err
		}
	}
	if r.Kind == Branch {
		var flags byte
		if r.Mispredict {
			flags |= 1
		}
		if err := w.w.WriteByte(flags); err != nil {
			return err
		}
	}
	if err := w.uvarint(uint64(r.Dep1)); err != nil {
		return err
	}
	if err := w.uvarint(uint64(r.Dep2)); err != nil {
		return err
	}
	w.n++
	return nil
}

// Count returns the number of records written.
func (w *Writer) Count() uint64 { return w.n }

// Flush flushes buffered output to the underlying writer.
func (w *Writer) Flush() error { return w.w.Flush() }

// Reader decodes records from an underlying stream.
type Reader struct {
	r *bufio.Reader
}

// NewReader validates the trace header and returns a Reader.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	var m [4]byte
	if _, err := io.ReadFull(br, m[:]); err != nil {
		return nil, fmt.Errorf("trace: reading magic: %w", err)
	}
	if m != magic {
		return nil, ErrBadMagic
	}
	v, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("trace: reading version: %w", err)
	}
	if v != formatVersion {
		return nil, fmt.Errorf("trace: unsupported format version %d", v)
	}
	return &Reader{r: br}, nil
}

// Read decodes the next record. It returns io.EOF at end of trace.
func (r *Reader) Read() (Record, error) {
	kb, err := r.r.ReadByte()
	if err != nil {
		return Record{}, err
	}
	rec := Record{Kind: Kind(kb)}
	if rec.Kind > Branch {
		return Record{}, fmt.Errorf("trace: invalid record kind %d", kb)
	}
	if rec.IsMem() {
		a, err := binary.ReadUvarint(r.r)
		if err != nil {
			return Record{}, unexpectedEOF(err)
		}
		rec.Addr = mem.Addr(a).Canon()
		sz, err := r.r.ReadByte()
		if err != nil {
			return Record{}, unexpectedEOF(err)
		}
		if err := checkSize(sz); err != nil {
			return Record{}, err
		}
		rec.Size = sz
	}
	if rec.Kind == Branch {
		flags, err := r.r.ReadByte()
		if err != nil {
			return Record{}, unexpectedEOF(err)
		}
		rec.Mispredict = flags&1 != 0
	}
	d1, err := binary.ReadUvarint(r.r)
	if err != nil {
		return Record{}, unexpectedEOF(err)
	}
	d2, err := binary.ReadUvarint(r.r)
	if err != nil {
		return Record{}, unexpectedEOF(err)
	}
	if d1 > math.MaxUint16 || d2 > math.MaxUint16 {
		return Record{}, fmt.Errorf("trace: dependency distance out of range (dep1 %d, dep2 %d)", d1, d2)
	}
	rec.Dep1, rec.Dep2 = uint16(d1), uint16(d2)
	return rec, nil
}

// unexpectedEOF converts a mid-record EOF into io.ErrUnexpectedEOF so
// callers can distinguish truncation from a clean end of trace.
func unexpectedEOF(err error) error {
	if errors.Is(err, io.EOF) {
		return io.ErrUnexpectedEOF
	}
	return err
}

// ReadAll decodes every remaining record.
func (r *Reader) ReadAll() ([]Record, error) {
	var out []Record
	for {
		rec, err := r.Read()
		if errors.Is(err, io.EOF) {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, rec)
	}
}

// Package snapshot implements the versioned binary container behind
// persistent document indexes: a flat, checksummed, section-tagged format
// whose payloads are the raw little-endian bytes of the engine's []int32
// and []uint64 arrays, so loading a snapshot costs ~one read plus
// O(sections) pointer fixups instead of an XML parse and an index build.
//
// Layout (all integers little-endian):
//
//	header   16 bytes: magic "CQSN" | version u32 | section count u32 | reserved u32
//	sections each: tag u32 | reserved u32 | payload length u64 (bytes),
//	         then the payload, padded to an 8-byte boundary
//	trailer  8 bytes: CRC-32C (Castagnoli) of everything before it | reserved u32
//
// Every section payload therefore starts 8-byte aligned relative to the
// start of the file. When the input byte slice itself is 8-byte aligned
// and the host is little-endian, Int32s/Uint64s return views that alias
// the input — the zero-copy path. Otherwise they fall back to an
// element-wise copy, so the format is loadable (just not free) on any
// host. Callers that want the zero-copy path from a file should read it
// with ReadFile, which guarantees an aligned buffer.
//
// The decoder is defensive by contract: Open and the typed accessors
// return errors wrapping ErrTruncated, ErrBadMagic, ErrVersion,
// ErrChecksum or ErrCorrupt — never panic — and never allocate more than
// O(input length), because every section length is validated against the
// remaining input before use.
package snapshot

import (
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"unsafe"

	"repro/internal/fault"
)

// Version is the current snapshot format version. Any change to the
// section set, tags, or payload encodings must bump it (the golden
// fixture test pins the on-disk bytes of version 1).
const Version = 1

// magic identifies a snapshot file: "CQSN" (Conjunctive Queries SNapshot).
var magic = [4]byte{'C', 'Q', 'S', 'N'}

const (
	headerSize     = 16
	sectionHdrSize = 16
	trailerSize    = 8
	// minSize is the smallest well-formed snapshot: header + trailer.
	minSize = headerSize + trailerSize
)

// Typed decode failures. Every error returned by Open and the Reader
// accessors wraps exactly one of these; match with errors.Is.
var (
	// ErrTruncated: the input ends before the structure it announces.
	ErrTruncated = errors.New("snapshot: truncated input")
	// ErrBadMagic: the input does not start with the snapshot magic.
	ErrBadMagic = errors.New("snapshot: bad magic")
	// ErrVersion: the format version is not supported by this build.
	ErrVersion = errors.New("snapshot: unsupported format version")
	// ErrChecksum: the trailer checksum does not match the content.
	ErrChecksum = errors.New("snapshot: checksum mismatch")
	// ErrCorrupt: a section is missing, misshapen, or holds out-of-range
	// values.
	ErrCorrupt = errors.New("snapshot: corrupt data")
)

// castagnoli is the CRC-32C table (hardware-accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// hostLittle reports whether the host is little-endian; the zero-copy
// paths require it (the format is always little-endian on disk).
var hostLittle = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// le64/le32 read little-endian integers without pulling in encoding/binary
// bounds panics on short input (callers validate lengths first).
func le32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

func le64(b []byte) uint64 {
	return uint64(le32(b)) | uint64(le32(b[4:]))<<32
}

func putLE32(b []byte, v uint32) {
	b[0], b[1], b[2], b[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
}

func putLE64(b []byte, v uint64) {
	putLE32(b, uint32(v))
	putLE32(b[4:], uint32(v>>32))
}

// pad8 returns n rounded up to a multiple of 8.
func pad8(n int) int { return (n + 7) &^ 7 }

// ---- writer ---------------------------------------------------------------

// Writer builds a snapshot from tagged sections. The zero value is not
// ready; use NewWriter. Writers are single-use: Finish seals the
// container and returns the bytes.
//
// A Writer records each section by reference and copies nothing until
// Finish, which allocates the output once at its exact size and copies
// every payload into it. Slices passed to Bytes, Int32s and Uint64s must
// therefore stay unchanged until Finish returns; the engine passes the
// immutable arrays of a built tree and index.
type Writer struct {
	parts []part
	size  int // header plus every section so far, in bytes
}

// part is one recorded section: its tag and its little-endian payload.
type part struct {
	tag     uint32
	payload []byte
}

// NewWriter returns an empty Writer.
func NewWriter() *Writer {
	return &Writer{parts: make([]part, 0, 32), size: headerSize}
}

// add records a section with the given little-endian payload.
func (w *Writer) add(tag uint32, payload []byte) {
	w.parts = append(w.parts, part{tag, payload})
	w.size += sectionHdrSize + pad8(len(payload))
}

// Bytes appends a raw byte section.
func (w *Writer) Bytes(tag uint32, b []byte) { w.add(tag, b) }

// Int32s appends a []int32 section (little-endian elements).
func (w *Writer) Int32s(tag uint32, v []int32) {
	if hostLittle || len(v) == 0 {
		w.add(tag, unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(v))), len(v)*4))
		return
	}
	b := make([]byte, len(v)*4)
	for i, x := range v {
		putLE32(b[i*4:], uint32(x))
	}
	w.add(tag, b)
}

// Uint64s appends a []uint64 section (little-endian elements).
func (w *Writer) Uint64s(tag uint32, v []uint64) {
	if hostLittle || len(v) == 0 {
		w.add(tag, unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(v))), len(v)*8))
		return
	}
	b := make([]byte, len(v)*8)
	for i, x := range v {
		putLE64(b[i*8:], x)
	}
	w.add(tag, b)
}

// Finish seals the container: it writes the header, every section and
// the checksum into one buffer of the exact size and returns it. The
// Writer must not be used afterwards.
func (w *Writer) Finish() []byte {
	buf := make([]byte, w.size+trailerSize)
	copy(buf, magic[:])
	putLE32(buf[4:], Version)
	putLE32(buf[8:], uint32(len(w.parts)))
	off := headerSize
	for _, p := range w.parts {
		putLE32(buf[off:], p.tag)
		putLE64(buf[off+8:], uint64(len(p.payload)))
		off += sectionHdrSize
		copy(buf[off:], p.payload)
		off += pad8(len(p.payload))
	}
	putLE32(buf[off:], crc32.Checksum(buf[:off], castagnoli))
	w.parts = nil
	return buf
}

// ---- reader ---------------------------------------------------------------

// Reader is a parsed snapshot: a tag -> payload map over the validated
// input. Accessors return zero-copy views into the input when the host is
// little-endian and the input is 8-byte aligned, and element-wise copies
// otherwise; ZeroCopy reports which path is active.
type Reader struct {
	sections map[uint32][]byte
	zeroCopy bool
}

// Open validates data (magic, version, checksum, section bounds) and
// indexes its sections. The returned Reader aliases data; data must not
// be mutated while the Reader — or any zero-copy view from it — is live.
func Open(data []byte) (*Reader, error) {
	if len(data) < minSize {
		return nil, fmt.Errorf("%w: %d bytes, need at least %d", ErrTruncated, len(data), minSize)
	}
	if [4]byte(data[:4]) != magic {
		return nil, ErrBadMagic
	}
	if v := le32(data[4:]); v != Version {
		return nil, fmt.Errorf("%w: file version %d, supported %d", ErrVersion, v, Version)
	}
	body := data[:len(data)-trailerSize]
	if got, want := crc32.Checksum(body, castagnoli), le32(data[len(data)-trailerSize:]); got != want {
		return nil, fmt.Errorf("%w: computed %08x, stored %08x", ErrChecksum, got, want)
	}
	count := int(le32(data[8:]))
	// Each section costs at least a header, so an absurd count cannot pass
	// the scan below; this bound just keeps the map allocation honest.
	if count < 0 || count > (len(body)-headerSize)/sectionHdrSize {
		return nil, fmt.Errorf("%w: section count %d impossible for %d bytes", ErrCorrupt, count, len(data))
	}
	r := &Reader{
		sections: make(map[uint32][]byte, count),
		zeroCopy: hostLittle && uintptr(unsafe.Pointer(unsafe.SliceData(data)))%8 == 0,
	}
	off := headerSize
	for i := 0; i < count; i++ {
		if off+sectionHdrSize > len(body) {
			return nil, fmt.Errorf("%w: section %d header past end", ErrTruncated, i)
		}
		tag := le32(body[off:])
		size := le64(body[off+8:])
		payload := off + sectionHdrSize
		if size > uint64(len(body)-payload) {
			return nil, fmt.Errorf("%w: section %#x claims %d bytes, %d remain", ErrTruncated, tag, size, len(body)-payload)
		}
		if _, dup := r.sections[tag]; dup {
			return nil, fmt.Errorf("%w: duplicate section %#x", ErrCorrupt, tag)
		}
		r.sections[tag] = body[payload : payload+int(size) : payload+int(size)]
		off = payload + pad8(int(size))
	}
	if off != len(body) {
		return nil, fmt.Errorf("%w: %d trailing bytes after last section", ErrCorrupt, len(body)-off)
	}
	return r, nil
}

// ZeroCopy reports whether the typed accessors return views aliasing the
// input (little-endian host, 8-byte-aligned input) rather than copies.
func (r *Reader) ZeroCopy() bool { return r.zeroCopy }

// Section returns the raw payload of tag.
func (r *Reader) Section(tag uint32) ([]byte, bool) {
	b, ok := r.sections[tag]
	return b, ok
}

// missing is the uniform missing-section error.
func missing(tag uint32) error {
	return fmt.Errorf("%w: missing section %#x", ErrCorrupt, tag)
}

// Bytes returns the payload of tag, failing if the section is absent.
func (r *Reader) Bytes(tag uint32) ([]byte, error) {
	b, ok := r.sections[tag]
	if !ok {
		return nil, missing(tag)
	}
	return b, nil
}

// Int32s returns the payload of tag as []int32 — a zero-copy view when
// possible (see ZeroCopy), an element-wise copy otherwise.
func (r *Reader) Int32s(tag uint32) ([]int32, error) {
	b, ok := r.sections[tag]
	if !ok {
		return nil, missing(tag)
	}
	if len(b)%4 != 0 {
		return nil, fmt.Errorf("%w: section %#x length %d not a multiple of 4", ErrCorrupt, tag, len(b))
	}
	n := len(b) / 4
	if n == 0 {
		return nil, nil
	}
	if r.zeroCopy {
		return unsafe.Slice((*int32)(unsafe.Pointer(unsafe.SliceData(b))), n), nil
	}
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(le32(b[i*4:]))
	}
	return out, nil
}

// Int32sIn is Int32s for a bounded table: it fails with ErrCorrupt
// unless the section has exactly n elements (any number when n < 0), each
// in [lo, hi].
func (r *Reader) Int32sIn(tag uint32, n int, lo, hi int32) ([]int32, error) {
	v, err := r.Int32s(tag)
	if err != nil {
		return nil, err
	}
	if n >= 0 && len(v) != n {
		return nil, fmt.Errorf("%w: section %#x has %d elements, want %d", ErrCorrupt, tag, len(v), n)
	}
	// One unsigned comparison per element: for lo <= hi, x is in [lo, hi]
	// iff x-lo, taken mod 2^32, is at most hi-lo.
	if hi < lo && len(v) > 0 {
		return nil, fmt.Errorf("%w: section %#x value %d outside empty [%d, %d]", ErrCorrupt, tag, v[0], lo, hi)
	}
	span := uint32(hi) - uint32(lo)
	for _, x := range v {
		if uint32(x)-uint32(lo) > span {
			return nil, fmt.Errorf("%w: section %#x value %d outside [%d, %d]", ErrCorrupt, tag, x, lo, hi)
		}
	}
	return v, nil
}

// Uint64s returns the payload of tag as []uint64 — zero-copy when
// possible, an element-wise copy otherwise.
func (r *Reader) Uint64s(tag uint32) ([]uint64, error) {
	b, ok := r.sections[tag]
	if !ok {
		return nil, missing(tag)
	}
	if len(b)%8 != 0 {
		return nil, fmt.Errorf("%w: section %#x length %d not a multiple of 8", ErrCorrupt, tag, len(b))
	}
	n := len(b) / 8
	if n == 0 {
		return nil, nil
	}
	if r.zeroCopy {
		return unsafe.Slice((*uint64)(unsafe.Pointer(unsafe.SliceData(b))), n), nil
	}
	out := make([]uint64, n)
	for i := range out {
		out[i] = le64(b[i*8:])
	}
	return out, nil
}

// ---- files ----------------------------------------------------------------

// ReadFile reads path into an 8-byte-aligned buffer, so that Open on the
// result takes the zero-copy path on little-endian hosts. (os.ReadFile
// gives no alignment guarantee; the buffer here is backed by a []uint64.)
func ReadFile(path string) ([]byte, error) {
	return ReadFileFS(fault.OS{}, path)
}

// ReadFileFS is ReadFile through an explicit filesystem — the seam the
// fault-injection suite uses to exercise read-time I/O failures.
func ReadFileFS(fsys fault.FS, path string) ([]byte, error) {
	f, err := fsys.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := st.Size()
	if size > int64(int(^uint(0)>>1)) {
		return nil, fmt.Errorf("snapshot: %s: file too large", path)
	}
	words := make([]uint64, (int(size)+7)/8)
	var buf []byte
	if len(words) > 0 {
		buf = unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(words))), int(size))
	}
	if _, err := io.ReadFull(f, buf); err != nil {
		return nil, fmt.Errorf("snapshot: %s: %w", path, err)
	}
	return buf, nil
}

// PeekMeta reads just enough of path to report the node count of the
// document snapshot stored there, validating magic, version, and that the
// first section is the document meta section. It is the cheap existence/
// shape check directory loading uses to register lazy stubs without
// reading (or checksumming) whole files.
func PeekMeta(path string) (nodes int, err error) {
	return PeekMetaFS(fault.OS{}, path)
}

// PeekMetaFS is PeekMeta through an explicit filesystem (see ReadFileFS).
func PeekMetaFS(fsys fault.FS, path string) (nodes int, err error) {
	f, err := fsys.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	var hdr [headerSize + sectionHdrSize + metaSize]byte
	if _, err := io.ReadFull(f, hdr[:]); err != nil {
		return 0, fmt.Errorf("%w: %s: %v", ErrTruncated, path, err)
	}
	if [4]byte(hdr[:4]) != magic {
		return 0, fmt.Errorf("%w: %s", ErrBadMagic, path)
	}
	if v := le32(hdr[4:]); v != Version {
		return 0, fmt.Errorf("%w: %s: file version %d, supported %d", ErrVersion, path, v, Version)
	}
	if tag := le32(hdr[headerSize:]); tag != TagDocMeta {
		return 0, fmt.Errorf("%w: %s: first section %#x, want doc meta", ErrCorrupt, path, tag)
	}
	if size := le64(hdr[headerSize+8:]); size != metaSize {
		return 0, fmt.Errorf("%w: %s: meta section %d bytes, want %d", ErrCorrupt, path, size, metaSize)
	}
	m, err := decodeMeta(hdr[headerSize+sectionHdrSize:])
	if err != nil {
		return 0, fmt.Errorf("%s: %w", path, err)
	}
	return m.Nodes, nil
}

// ---- document meta --------------------------------------------------------

// Meta is the fixed-size leading section of every document snapshot: the
// node count, the distinct-label count, and the tree's StructureSize —
// everything a directory scan needs without loading the document.
type Meta struct {
	Nodes     int
	Labels    int
	Structure int
}

const metaSize = 16

// WriteMeta appends the document meta section. It must be the first
// section written (PeekMeta relies on its position).
func (w *Writer) WriteMeta(m Meta) {
	b := make([]byte, metaSize)
	w.add(TagDocMeta, b)
	putLE32(b, uint32(m.Nodes))
	putLE32(b[4:], uint32(m.Labels))
	putLE64(b[8:], uint64(m.Structure))
}

func decodeMeta(b []byte) (Meta, error) {
	if len(b) < metaSize {
		return Meta{}, fmt.Errorf("%w: meta section %d bytes, want %d", ErrCorrupt, len(b), metaSize)
	}
	m := Meta{
		Nodes:     int(int32(le32(b))),
		Labels:    int(int32(le32(b[4:]))),
		Structure: int(int64(le64(b[8:]))),
	}
	if m.Nodes < 0 || m.Labels < 0 || m.Structure < 0 {
		return Meta{}, fmt.Errorf("%w: negative meta fields", ErrCorrupt)
	}
	return m, nil
}

// Meta returns the document meta section.
func (r *Reader) Meta() (Meta, error) {
	b, ok := r.sections[TagDocMeta]
	if !ok {
		return Meta{}, missing(TagDocMeta)
	}
	return decodeMeta(b)
}

// ---- tag registry ---------------------------------------------------------

// Section tags. All tags of the format live here — one registry, no
// collisions. Tags are stable identifiers: never renumber, only append.
const (
	// TagDocMeta is the fixed-size leading meta section (see Meta).
	TagDocMeta uint32 = 0x0001

	// Tree sections (the substrate of internal/tree.Tree).
	TagTreeParent   uint32 = 0x0101 // parent[v], -1 at the root
	TagTreeKidsOff  uint32 = 0x0102 // n+1 offsets into kids-flat
	TagTreeKidsFlat uint32 = 0x0103 // children, parent-major, left-to-right
	TagTreeSibIndex uint32 = 0x0104
	TagTreePre      uint32 = 0x0105
	TagTreePost     uint32 = 0x0106
	TagTreeBFLR     uint32 = 0x0107
	TagTreeDepth    uint32 = 0x0108
	TagTreePreEnd   uint32 = 0x0109
	TagTreeByPre    uint32 = 0x010a
	TagTreeByPost   uint32 = 0x010b
	TagTreeByBFLR   uint32 = 0x010c
	TagTreeNames    uint32 = 0x010d // concatenated label-name bytes, alphabet order
	TagTreeNameOff  uint32 = 0x010e // L+1 offsets into the name bytes
	TagTreeLabelOff uint32 = 0x010f // n+1 offsets into the label-id list
	TagTreeLabelIDs uint32 = 0x0110 // per-node label ids, node-major, sorted

	// TreeIndex sections (internal/consistency.TreeIndex).
	TagIxSibRank    uint32 = 0x0201
	TagIxSibStart   uint32 = 0x0202
	TagIxPreEndNode uint32 = 0x0203
	TagIxPreEndPos  uint32 = 0x0204
	TagIxPreEndVal  uint32 = 0x0205
	TagIxParentPre  uint32 = 0x0206
	TagIxFirstChild uint32 = 0x0207
	TagIxNextSib    uint32 = 0x0208
	TagIxPrevSib    uint32 = 0x0209
	TagIxSubtreeEnd uint32 = 0x020a
	TagIxInternal   uint32 = 0x020b // bitset words over pre ranks
)

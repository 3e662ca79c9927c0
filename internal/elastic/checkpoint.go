package elastic

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"

	"aceso/internal/runtime"
)

// Checkpoint file layout (all integers little-endian):
//
//	8  bytes  magic "ACESOCKP"
//	4  bytes  format version (uint32)
//	8  bytes  payload length (uint64)
//	N  bytes  payload (the encoded State)
//	8  bytes  FNV-1a 64 checksum of the payload
//
// Payload:
//
//	u64 step · u64 seed (two's complement) · u32 optimizer
//	u32 rank count, then per rank:
//	  u32 rank · u32 tensor count, then per tensor:
//	    u32 op · u32 kind · u32 rowOff · u32 colOff
//	    u32 rows · u32 cols · u32 fullRows · u32 fullCols
//	    rows*cols × u64 (IEEE-754 bits)
//
// The decoder bounds-checks every read and returns typed errors —
// *FormatError, *ChecksumError, *VersionError — never panics, no
// matter what bytes it is fed (FuzzCheckpointLoadNeverPanics pins
// this). Loads of a torn or bit-flipped file therefore fail cleanly
// and the caller falls back to the previous checkpoint.

const (
	// FormatVersion is the current checkpoint format version.
	FormatVersion = 1
	headerLen     = 8 + 4 + 8
	// maxDim caps a single tensor dimension — far beyond any model this
	// runtime executes, small enough that a corrupt length field cannot
	// drive a multi-gigabyte allocation before the checksum is verified.
	maxDim = 1 << 20
)

var magic = [8]byte{'A', 'C', 'E', 'S', 'O', 'C', 'K', 'P'}

// FormatError reports structurally invalid checkpoint bytes.
type FormatError struct {
	Offset int // byte offset the decoder had reached
	Msg    string
}

// Error implements the error interface.
func (e *FormatError) Error() string {
	return fmt.Sprintf("elastic: invalid checkpoint at byte %d: %s", e.Offset, e.Msg)
}

// ChecksumError reports a payload whose checksum does not match —
// bit rot, a torn write, or deliberate tampering.
type ChecksumError struct {
	Want, Got uint64
}

// Error implements the error interface.
func (e *ChecksumError) Error() string {
	return fmt.Sprintf("elastic: checkpoint checksum mismatch: stored %016x, computed %016x", e.Want, e.Got)
}

// VersionError reports a checkpoint written by an unknown format
// version.
type VersionError struct {
	Got uint32
}

// Error implements the error interface.
func (e *VersionError) Error() string {
	return fmt.Sprintf("elastic: unsupported checkpoint version %d (supported: %d)", e.Got, FormatVersion)
}

// Encode serializes the state to the versioned, checksummed format.
func Encode(st *State) []byte {
	payload := make([]byte, 0, encodedSize(st))
	u64 := func(v uint64) { payload = binary.LittleEndian.AppendUint64(payload, v) }
	u32 := func(v uint32) { payload = binary.LittleEndian.AppendUint32(payload, v) }
	u64(uint64(st.Step))
	u64(uint64(st.Seed))
	u32(uint32(st.Opt))
	u32(uint32(len(st.Ranks)))
	for ri := range st.Ranks {
		rs := &st.Ranks[ri]
		u32(uint32(rs.Rank))
		u32(uint32(len(rs.Tensors)))
		for ti := range rs.Tensors {
			sh := &rs.Tensors[ti]
			u32(uint32(sh.Op))
			u32(uint32(sh.Kind))
			u32(uint32(sh.RowOff))
			u32(uint32(sh.ColOff))
			u32(uint32(sh.Rows))
			u32(uint32(sh.Cols))
			u32(uint32(sh.FullRows))
			u32(uint32(sh.FullCols))
			for _, v := range sh.Data {
				u64(math.Float64bits(v))
			}
		}
	}

	out := make([]byte, 0, headerLen+len(payload)+8)
	out = append(out, magic[:]...)
	out = binary.LittleEndian.AppendUint32(out, FormatVersion)
	out = binary.LittleEndian.AppendUint64(out, uint64(len(payload)))
	out = append(out, payload...)
	h := fnv.New64a()
	h.Write(payload)
	out = binary.LittleEndian.AppendUint64(out, h.Sum64())
	return out
}

func encodedSize(st *State) int {
	n := 8 + 8 + 4 + 4
	for ri := range st.Ranks {
		n += 8
		for ti := range st.Ranks[ri].Tensors {
			n += 8*4 + 8*len(st.Ranks[ri].Tensors[ti].Data)
		}
	}
	return n
}

// decoder is a bounds-checked cursor over checkpoint bytes.
type decoder struct {
	b   []byte
	off int
}

func (d *decoder) fail(msg string) error { return &FormatError{Offset: d.off, Msg: msg} }

func (d *decoder) u32(what string) (uint32, error) {
	if len(d.b)-d.off < 4 {
		return 0, d.fail("truncated reading " + what)
	}
	v := binary.LittleEndian.Uint32(d.b[d.off:])
	d.off += 4
	return v, nil
}

func (d *decoder) u64(what string) (uint64, error) {
	if len(d.b)-d.off < 8 {
		return 0, d.fail("truncated reading " + what)
	}
	v := binary.LittleEndian.Uint64(d.b[d.off:])
	d.off += 8
	return v, nil
}

// count reads a collection length and sanity-checks it against the
// bytes remaining (each element needs at least minElem bytes), so a
// corrupted count cannot drive an absurd allocation.
func (d *decoder) count(what string, minElem int) (int, error) {
	v, err := d.u32(what)
	if err != nil {
		return 0, err
	}
	n := int(v)
	if n < 0 || n > (len(d.b)-d.off)/minElem {
		return 0, d.fail(fmt.Sprintf("%s %d exceeds remaining payload", what, n))
	}
	return n, nil
}

// Decode parses checkpoint bytes into a State. It returns a typed
// error for any malformed input — truncation, bad magic, unknown
// version, checksum mismatch, or inconsistent structure counts — and
// is panic-free by construction (every read is bounds-checked).
func Decode(data []byte) (*State, error) {
	d := &decoder{b: data}
	if len(data) < headerLen+8 {
		return nil, d.fail("shorter than header")
	}
	for i := range magic {
		if data[i] != magic[i] {
			return nil, d.fail("bad magic")
		}
	}
	d.off = 8
	version, err := d.u32("version")
	if err != nil {
		return nil, err
	}
	if version != FormatVersion {
		return nil, &VersionError{Got: version}
	}
	plen64, err := d.u64("payload length")
	if err != nil {
		return nil, err
	}
	if plen64 != uint64(len(data)-headerLen-8) {
		return nil, d.fail(fmt.Sprintf("payload length %d does not match file size %d", plen64, len(data)))
	}
	payload := data[headerLen : len(data)-8]
	stored := binary.LittleEndian.Uint64(data[len(data)-8:])
	h := fnv.New64a()
	h.Write(payload)
	if got := h.Sum64(); got != stored {
		return nil, &ChecksumError{Want: stored, Got: got}
	}

	d = &decoder{b: payload}
	st := &State{}
	step, err := d.u64("step")
	if err != nil {
		return nil, err
	}
	st.Step = int(int64(step))
	if st.Step < 0 {
		return nil, d.fail(fmt.Sprintf("negative step %d", st.Step))
	}
	seed, err := d.u64("seed")
	if err != nil {
		return nil, err
	}
	st.Seed = int64(seed)
	opt, err := d.u32("optimizer")
	if err != nil {
		return nil, err
	}
	if opt > uint32(runtime.Adam) {
		return nil, d.fail(fmt.Sprintf("unknown optimizer %d", opt))
	}
	st.Opt = runtime.Optimizer(opt)

	nRanks, err := d.count("rank count", 8)
	if err != nil {
		return nil, err
	}
	st.Ranks = make([]RankShard, 0, nRanks)
	for r := 0; r < nRanks; r++ {
		rank, err := d.u32("rank id")
		if err != nil {
			return nil, err
		}
		rs := RankShard{Rank: int(rank)}
		nTensors, err := d.count("tensor count", 8*4)
		if err != nil {
			return nil, err
		}
		rs.Tensors = make([]TensorShard, 0, nTensors)
		for t := 0; t < nTensors; t++ {
			sh, err := d.tensorShard()
			if err != nil {
				return nil, err
			}
			rs.Tensors = append(rs.Tensors, sh)
		}
		st.Ranks = append(st.Ranks, rs)
	}
	if d.off != len(payload) {
		return nil, d.fail(fmt.Sprintf("%d trailing payload bytes", len(payload)-d.off))
	}
	return st, nil
}

func (d *decoder) tensorShard() (TensorShard, error) {
	var sh TensorShard
	fields := []struct {
		what string
		dst  *int
	}{
		{"op", &sh.Op}, {"kind", nil},
		{"row offset", &sh.RowOff}, {"col offset", &sh.ColOff},
		{"rows", &sh.Rows}, {"cols", &sh.Cols},
		{"full rows", &sh.FullRows}, {"full cols", &sh.FullCols},
	}
	for _, f := range fields {
		v, err := d.u32(f.what)
		if err != nil {
			return sh, err
		}
		if f.dst == nil {
			if v >= uint32(numTensorKinds) {
				return sh, d.fail(fmt.Sprintf("unknown tensor kind %d", v))
			}
			sh.Kind = TensorKind(v)
			continue
		}
		if v > maxDim {
			return sh, d.fail(fmt.Sprintf("%s %d exceeds limit %d", f.what, v, maxDim))
		}
		*f.dst = int(v)
	}
	elems := sh.Rows * sh.Cols
	if elems > (len(d.b)-d.off)/8 {
		return sh, d.fail(fmt.Sprintf("shard of %d elems exceeds remaining payload", elems))
	}
	sh.Data = make([]float64, elems)
	for i := range sh.Data {
		sh.Data[i] = math.Float64frombits(binary.LittleEndian.Uint64(d.b[d.off:]))
		d.off += 8
	}
	return sh, nil
}

// Save atomically writes the state to path: encode, write to a unique
// temp file in the same directory, fsync the file, rename, fsync the
// parent directory. A crash mid-save leaves either the old checkpoint
// or the new one — never a torn file (and a torn rename target would
// still be caught by the checksum). The directory fsync is what makes
// the rename itself durable: without it a power cut can roll the
// directory entry back to the old checkpoint even though Save
// returned. A crash between write and rename leaves an orphaned
// `.ckpt-*` temp file behind; SweepTemps clears those on startup.
func Save(path string, st *State) error {
	data := Encode(st)
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, ".ckpt-*")
	if err != nil {
		return fmt.Errorf("elastic: save checkpoint: %w", err)
	}
	tmp := f.Name()
	cleanup := func(err error) error {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("elastic: save checkpoint: %w", err)
	}
	if _, err := f.Write(data); err != nil {
		return cleanup(err)
	}
	if err := f.Sync(); err != nil {
		return cleanup(err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("elastic: save checkpoint: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("elastic: save checkpoint: %w", err)
	}
	if err := syncDir(dir); err != nil {
		return fmt.Errorf("elastic: save checkpoint: %w", err)
	}
	return nil
}

// syncDir fsyncs a directory so a just-renamed entry survives a crash.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// SweepTemps removes orphaned checkpoint temp files left in dir by a
// crash between Save's write and rename. It returns how many were
// removed. Call it before training starts (Supervise does) —
// it must not run concurrently with an in-flight Save in the same
// directory, or it could unlink a temp file about to be renamed.
func SweepTemps(dir string) (int, error) {
	matches, err := filepath.Glob(filepath.Join(dir, ".ckpt-*"))
	if err != nil {
		return 0, fmt.Errorf("elastic: sweep temps: %w", err)
	}
	removed := 0
	for _, m := range matches {
		if err := os.Remove(m); err != nil {
			return removed, fmt.Errorf("elastic: sweep temps: %w", err)
		}
		removed++
	}
	return removed, nil
}

// Load reads and decodes a checkpoint file. All failure modes —
// missing file, truncation, corruption — come back as errors; the
// decoder never panics.
func Load(path string) (*State, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("elastic: load checkpoint: %w", err)
	}
	st, err := Decode(data)
	if err != nil {
		return nil, fmt.Errorf("elastic: load checkpoint %s: %w", path, err)
	}
	return st, nil
}

package checkpoint

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// stubLearner is a minimal Checkpointer with enough state to prove the
// fail-closed contract: after any rejected load, every field must be exactly
// what it was before.
type stubLearner struct {
	kind        string
	fingerprint uint64
	phase, ep   int

	a    int
	b    float64
	xs   []float32
	flag bool
}

func newStub() *stubLearner {
	return &stubLearner{
		kind:        "stub",
		fingerprint: Fingerprint("stub|v=1"),
		phase:       PhaseTrain,
		ep:          3,
		a:           17,
		b:           2.5,
		xs:          []float32{1, -2, 3.75},
		flag:        true,
	}
}

func (s *stubLearner) CheckpointKind() string         { return s.kind }
func (s *stubLearner) CheckpointFingerprint() uint64  { return s.fingerprint }
func (s *stubLearner) CheckpointProgress() (int, int) { return s.phase, s.ep }

func (s *stubLearner) EncodeCheckpoint(e *Encoder) {
	e.Int(s.a)
	e.F64(s.b)
	e.Floats32(s.xs)
	e.Bool(s.flag)
}

func (s *stubLearner) DecodeCheckpoint(d *Decoder) error {
	a, b, xs, flag := d.Int(), d.F64(), d.Floats32(), d.Bool()
	if err := d.Err(); err != nil {
		return err
	}
	if a < 0 {
		return fmt.Errorf("stub: negative counter %d", a)
	}
	s.a, s.b, s.xs, s.flag = a, b, xs, flag
	return nil
}

// snapshot copies the mutable state for before/after comparison.
func (s *stubLearner) snapshot() stubLearner {
	cp := *s
	cp.xs = append([]float32(nil), s.xs...)
	return cp
}

func mustMarshal(t *testing.T, c Checkpointer) []byte {
	t.Helper()
	data, err := Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestMarshalUnmarshalRoundTrip(t *testing.T) {
	src := newStub()
	data := mustMarshal(t, src)

	dst := newStub()
	dst.a, dst.b, dst.xs, dst.flag = 0, 0, nil, false
	meta, err := Unmarshal(data, dst)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Version != Version || meta.Kind != "stub" || meta.Phase != PhaseTrain || meta.Episode != 3 {
		t.Errorf("meta = %+v", meta)
	}
	if dst.a != src.a || dst.b != src.b || !reflect.DeepEqual(dst.xs, src.xs) || dst.flag != src.flag {
		t.Errorf("restored state differs: %+v vs %+v", dst, src)
	}

	// Determinism: the restored learner serializes to the identical bytes.
	if again := mustMarshal(t, dst); !reflect.DeepEqual(again, data) {
		t.Error("marshal after restore is not byte-identical")
	}
}

// TestCorruptionBattery is the core fail-closed proof: every corruption mode
// is rejected with its distinct sentinel, and the learner is untouched.
func TestCorruptionBattery(t *testing.T) {
	valid := mustMarshal(t, newStub())
	meta := Meta{Version: Version, Kind: "stub", Fingerprint: Fingerprint("stub|v=1"), Phase: PhaseTrain, Episode: 3}

	// Container offsets for the stub: magic 0..4, version 4..8,
	// kind length+bytes 8..14, fingerprint 14..22, phase 22..26,
	// episode 26..34, payload length 34..42, payload 42.., digest last 32.
	flip := func(off int) []byte {
		data := append([]byte(nil), valid...)
		data[off] ^= 0x02
		return data
	}
	truncate := func(n int) []byte { return append([]byte(nil), valid[:n]...) }
	badPayload := func(build func(e *Encoder)) []byte {
		e := NewEncoder()
		build(e)
		return Seal(meta, e.Bytes())
	}

	cases := []struct {
		name string
		data []byte
		want error
	}{
		{"empty file", nil, ErrTruncated},
		{"shorter than magic", truncate(3), ErrTruncated},
		{"header cut mid-fingerprint", truncate(18), ErrTruncated},
		{"payload cut short", truncate(len(valid) - 40), ErrTruncated},
		{"digest cut short", truncate(len(valid) - 5), ErrTruncated},
		{"magic bit flip", flip(0), ErrBadMagic},
		{"version bit flip", flip(4), ErrVersion},
		{"fingerprint bit flip", flip(14), ErrDigest},
		{"payload bit flip", flip(44), ErrDigest},
		{"digest bit flip", flip(len(valid) - 1), ErrDigest},
		{"future version", Seal(Meta{Version: Version + 1, Kind: "stub", Fingerprint: meta.Fingerprint}, nil), ErrVersion},
		// Version-1 files carry float64 weight payloads; the header check
		// must reject them before the float32 payload decoder ever runs.
		{"previous version (float64-era file)", Seal(Meta{Version: 1, Kind: "stub", Fingerprint: meta.Fingerprint}, nil), ErrVersion},
		// Version-2 files carry float64 transition rows; they too fail
		// closed on the header, with no migration.
		{"previous version (float64 transition rows)", Seal(Meta{Version: 2, Kind: "stub", Fingerprint: meta.Fingerprint}, nil), ErrVersion},
		{"kind mismatch", Seal(Meta{Version: Version, Kind: "dqn", Fingerprint: meta.Fingerprint}, nil), ErrKind},
		{"fingerprint mismatch", Seal(Meta{Version: Version, Kind: "stub", Fingerprint: meta.Fingerprint + 1}, nil), ErrFingerprint},
		{"payload truncated inside a field", badPayload(func(e *Encoder) { e.Int(1) }), ErrPayload},
		{"payload fails learner validation", badPayload(func(e *Encoder) {
			e.Int(-5)
			e.F64(0)
			e.Floats32(nil)
			e.Bool(false)
		}), ErrPayload},
		{"payload with trailing bytes", badPayload(func(e *Encoder) {
			newStub().EncodeCheckpoint(e)
			e.U8(0)
		}), ErrPayload},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			learner := newStub()
			before := learner.snapshot()
			_, err := Unmarshal(tc.data, learner)
			if err == nil {
				t.Fatal("corrupt checkpoint loaded without error")
			}
			if !errors.Is(err, tc.want) {
				t.Fatalf("error = %v, want wrap of %v", err, tc.want)
			}
			// Exactly one sentinel: the battery's modes must stay
			// distinguishable.
			for _, other := range []error{ErrTruncated, ErrBadMagic, ErrVersion, ErrDigest, ErrKind, ErrFingerprint, ErrPayload} {
				if other != tc.want && errors.Is(err, other) {
					t.Errorf("error wraps both %v and %v", tc.want, other)
				}
			}
			after := learner.snapshot()
			if !reflect.DeepEqual(before, after) {
				t.Errorf("failed load mutated learner: %+v -> %+v", before, after)
			}
		})
	}
}

func TestShouldSave(t *testing.T) {
	cases := []struct {
		opts        TrainOptions
		done, total int
		want        bool
	}{
		{TrainOptions{}, 5, 10, false},                   // disabled
		{TrainOptions{}, 10, 10, false},                  // disabled even at end
		{TrainOptions{Dir: "d"}, 5, 10, false},           // no cadence, mid-run
		{TrainOptions{Dir: "d"}, 10, 10, true},           // final always saves
		{TrainOptions{Dir: "d", Every: 3}, 3, 10, true},  // on cadence
		{TrainOptions{Dir: "d", Every: 3}, 4, 10, false}, // off cadence
		{TrainOptions{Dir: "d", Every: 3}, 9, 10, true},  // on cadence
		{TrainOptions{Dir: "d", Every: 3}, 10, 10, true}, // final wins off-cadence
		{TrainOptions{Dir: "d", Every: 7}, 12, 10, true}, // past total
	}
	for i, tc := range cases {
		if got := tc.opts.ShouldSave(tc.done, tc.total); got != tc.want {
			t.Errorf("case %d: ShouldSave(%d, %d) with %+v = %v, want %v",
				i, tc.done, tc.total, tc.opts, got, tc.want)
		}
	}
}

func TestWriteFileAtomicAndClean(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ckpt.fmck")
	if err := WriteFile(path, newStub()); err != nil {
		t.Fatal(err)
	}
	// No temp droppings after a successful write.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "ckpt.fmck" {
		t.Errorf("directory after write: %v", entries)
	}
	// And the file round-trips.
	dst := newStub()
	dst.a = 0
	if _, err := ReadFile(path, dst); err != nil {
		t.Fatal(err)
	}
	if dst.a != 17 {
		t.Errorf("restored a = %d", dst.a)
	}

	// Overwriting an existing checkpoint keeps it valid.
	dst.a = 99
	if err := WriteFile(path, dst); err != nil {
		t.Fatal(err)
	}
	again := newStub()
	if _, err := ReadFile(path, again); err != nil {
		t.Fatal(err)
	}
	if again.a != 99 {
		t.Errorf("overwritten checkpoint restored a = %d", again.a)
	}
}

func TestFileNameSortsInTrainingOrder(t *testing.T) {
	names := []string{
		FileName(PhaseTrain, 2),
		FileName(PhasePretrain, 10),
		FileName(PhaseTrain, 10),
		FileName(PhasePretrain, 2),
	}
	sorted := append([]string(nil), names...)
	sort.Strings(sorted)
	want := []string{
		FileName(PhasePretrain, 2),
		FileName(PhasePretrain, 10),
		FileName(PhaseTrain, 2),
		FileName(PhaseTrain, 10),
	}
	if !reflect.DeepEqual(sorted, want) {
		t.Errorf("lexical order %v != training order %v", sorted, want)
	}
}

func TestLatestAndPrune(t *testing.T) {
	dir := t.TempDir()
	for ep := 1; ep <= 4; ep++ {
		s := newStub()
		s.ep = ep
		if _, err := SaveDir(dir, s, 0); err != nil {
			t.Fatal(err)
		}
	}
	// DefaultKeep bounds retention.
	names, err := checkpointFiles(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != DefaultKeep {
		t.Errorf("retained %d files, want %d: %v", len(names), DefaultKeep, names)
	}

	path, meta, err := Latest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Episode != 4 {
		t.Errorf("Latest episode = %d, want 4", meta.Episode)
	}

	// Corrupt the newest file: Latest falls back to the previous one instead
	// of bricking resume.
	if err := os.WriteFile(path, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, meta2, err := Latest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if meta2.Episode != 3 {
		t.Errorf("Latest after corruption = episode %d, want 3", meta2.Episode)
	}

	// An intact file of the previous format version behind the valid ones
	// does not stop the search: the newest valid file is still returned.
	if err := os.WriteFile(filepath.Join(dir, FileName(PhasePretrain, 1)), previousVersionFile(), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, meta3, err := Latest(dir); err != nil || meta3.Episode != 3 {
		t.Errorf("Latest with an older-version file behind = episode %d, %v; want 3", meta3.Episode, err)
	}

	// Tighter prune keeps only the newest.
	if err := Prune(dir, 1); err != nil {
		t.Fatal(err)
	}
	names, _ = checkpointFiles(dir)
	if len(names) != 1 {
		t.Errorf("after Prune(1): %v", names)
	}
}

func TestLatestNoCheckpoint(t *testing.T) {
	// Missing directory reads as "nothing saved yet", not an I/O error.
	if _, _, err := Latest(filepath.Join(t.TempDir(), "never-created")); !errors.Is(err, ErrNoCheckpoint) {
		t.Errorf("missing dir: %v", err)
	}
	// So does an empty directory.
	if _, _, err := Latest(t.TempDir()); !errors.Is(err, ErrNoCheckpoint) {
		t.Errorf("empty dir: %v", err)
	}
	// And one holding only corrupt files.
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, FileName(0, 1)), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Latest(dir); !errors.Is(err, ErrNoCheckpoint) {
		t.Errorf("all-corrupt dir: %v", err)
	}
	// An intact file of another format version is not "nothing saved": a
	// resume must refuse it rather than retrain over it.
	dir = t.TempDir()
	old := filepath.Join(dir, FileName(PhaseTrain, 1))
	if err := os.WriteFile(old, previousVersionFile(), 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err := Latest(dir)
	if !errors.Is(err, ErrVersion) || errors.Is(err, ErrNoCheckpoint) || !strings.Contains(err.Error(), old) {
		t.Errorf("previous-version-only dir: %v, want an ErrVersion naming %s", err, old)
	}
}

// previousVersionFile is a digest-valid stub checkpoint of the format
// version before this build's.
func previousVersionFile() []byte {
	return Seal(Meta{Version: Version - 1, Kind: "stub", Fingerprint: Fingerprint("stub|v=1"), Phase: PhaseTrain, Episode: 1}, nil)
}

func TestFingerprintStable(t *testing.T) {
	// FNV-64a reference values; the fingerprint definition is frozen, so
	// these must never change.
	if got := Fingerprint(""); got != 0xcbf29ce484222325 {
		t.Errorf("Fingerprint(\"\") = %#x", got)
	}
	if got := Fingerprint("a"); got != 0xaf63dc4c8601ec8c {
		t.Errorf("Fingerprint(\"a\") = %#x", got)
	}
	if Fingerprint("cma2c|alpha=0.6") == Fingerprint("cma2c|alpha=0.8") {
		t.Error("distinct configs collided")
	}
}

// Package checkpoint implements crash-safe, versioned training checkpoints
// with byte-identical restart semantics.
//
// A checkpoint is a single file:
//
//	magic "FMCK" | u32 format version | kind | u64 config fingerprint |
//	u32 phase | u64 episode | u64 payload length | payload |
//	sha256 digest of every preceding byte
//
// The payload is a learner-specific deterministic encoding (see codec.go)
// produced and consumed through the Checkpointer interface. Every container
// field is validated before one payload byte reaches a learner decoder, and
// learner decoders commit state only after a full successful decode, so a
// failed load of any kind leaves the in-memory learner untouched.
//
// Files are written via temp file + fsync + atomic rename: a crash during a
// write can leave a stale temp file behind but never a truncated or
// half-written checkpoint under a checkpoint name. Latest and Prune manage
// a directory of cadence-written checkpoints as a ring of the newest K.
//
// Resume contract (pinned by determinism_test.go at the repo root): a
// learner restored from a checkpoint written after episode K and trained to
// the same total N produces byte-identical weights, optimizer state, and
// evaluation results as the unbroken N-episode run. This works because every
// per-episode stream is re-derived from (seed, episode) via rng.SplitStable
// at episode boundaries — the only state that survives an episode is what
// the checkpoint carries.
package checkpoint

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Magic identifies a FairMove checkpoint file.
const Magic = "FMCK"

// Version is the current container format version. Bump it when the
// container layout or any learner payload encoding changes shape — the
// golden fixtures under testdata/checkpoints/ exist to force that
// conversation whenever the bytes drift. Version 2 moved the nn weight and
// Adam-moment payloads to float32 (the tensor backend's native precision).
// Version 3 stores transition buffers (replay memory, demonstration stores)
// as float32 rows in one block after the count (policy.EncodeTransitions)
// instead of two float64 slices per transition. Files of earlier versions
// fail closed with ErrVersion.
const Version = 3

// Training phases recorded in the container header.
const (
	// PhasePretrain marks a checkpoint taken between demonstration
	// (warm-start) episodes.
	PhasePretrain = 0
	// PhaseTrain marks a checkpoint taken between reward-driven
	// fine-tuning episodes.
	PhaseTrain = 1
)

// Sentinel errors, one per corruption mode. Load failures wrap exactly one
// of these so callers (and the corruption-battery tests) can tell a
// truncated file from a flipped bit from a config mismatch.
var (
	ErrTruncated    = errors.New("checkpoint: truncated or size-mismatched file")
	ErrBadMagic     = errors.New("checkpoint: bad magic (not a checkpoint file)")
	ErrVersion      = errors.New("checkpoint: unsupported format version")
	ErrDigest       = errors.New("checkpoint: content digest mismatch (corrupt file)")
	ErrKind         = errors.New("checkpoint: learner kind mismatch")
	ErrFingerprint  = errors.New("checkpoint: config fingerprint mismatch")
	ErrPayload      = errors.New("checkpoint: malformed payload")
	ErrNoCheckpoint = errors.New("checkpoint: no checkpoint found")
)

// Checkpointer is implemented by every resumable learner (CMA2C, DQN, TQL,
// TBA). Encode must be deterministic — same logical state, same bytes — and
// Decode must be all-or-nothing: decode into temporaries, validate, and only
// then commit, so a malformed payload never leaves a learner half-updated.
type Checkpointer interface {
	// CheckpointKind names the learner format (e.g. "cma2c"); a checkpoint
	// of one kind never loads into another.
	CheckpointKind() string
	// CheckpointFingerprint hashes every hyperparameter that shapes or
	// reinterprets the state. Loading fails closed on mismatch: resuming
	// under a different configuration would silently diverge instead of
	// byte-identically continuing.
	CheckpointFingerprint() uint64
	// CheckpointProgress reports the training phase (PhasePretrain or
	// PhaseTrain) and the number of episodes of that phase completed.
	CheckpointProgress() (phase, episode int)
	// EncodeCheckpoint appends the learner state to the encoder.
	EncodeCheckpoint(e *Encoder)
	// DecodeCheckpoint restores state written by EncodeCheckpoint. It must
	// not mutate the learner unless the entire decode succeeds.
	DecodeCheckpoint(d *Decoder) error
}

// TrainOptions carries the checkpoint cadence through a training call.
// The zero value disables checkpointing entirely.
type TrainOptions struct {
	// Dir is the checkpoint directory; empty disables checkpointing.
	Dir string
	// Every is the cadence in episodes. <= 0 writes only the final
	// checkpoint at the end of the training call.
	Every int
	// Keep bounds how many checkpoint files the directory retains
	// (oldest pruned first); <= 0 means DefaultKeep.
	Keep int
}

// DefaultKeep is the default retention when TrainOptions.Keep <= 0.
const DefaultKeep = 3

// Enabled reports whether the options request any checkpointing.
func (o TrainOptions) Enabled() bool { return o.Dir != "" }

// ShouldSave reports whether a checkpoint is due after `done` of `total`
// episodes: at every cadence boundary and always at the end of the run (so
// a completed training call leaves a loadable final policy behind).
func (o TrainOptions) ShouldSave(done, total int) bool {
	if !o.Enabled() {
		return false
	}
	if done >= total {
		return true
	}
	return o.Every > 0 && done%o.Every == 0
}

// Meta is the validated container header of a checkpoint.
type Meta struct {
	Version     uint32
	Kind        string
	Fingerprint uint64
	Phase       int
	Episode     int
}

// Fingerprint hashes a canonical configuration string with FNV-64a. Learners
// build the string from every hyperparameter that shapes their state.
func Fingerprint(canonical string) uint64 {
	// Inline FNV-64a keeps the fingerprint definition self-contained and
	// frozen: a hash/fnv behavior change could never silently invalidate
	// every existing checkpoint.
	const offset64, prime64 = 0xcbf29ce484222325, 0x100000001b3
	h := uint64(offset64)
	for i := 0; i < len(canonical); i++ {
		h ^= uint64(canonical[i])
		h *= prime64
	}
	return h
}

// Seal wraps an arbitrary payload in a well-formed container: header,
// length, and a valid digest. Marshal uses it with a real learner payload;
// tests use it directly to build digest-valid containers around malformed
// payloads (the only corruption mode the digest cannot catch).
func Seal(meta Meta, payload []byte) []byte {
	var buf bytes.Buffer
	buf.WriteString(Magic)
	w := func(v any) { _ = binary.Write(&buf, binary.LittleEndian, v) }
	w(meta.Version)
	w(uint16(len(meta.Kind)))
	buf.WriteString(meta.Kind)
	w(meta.Fingerprint)
	w(uint32(meta.Phase))
	w(uint64(meta.Episode))
	w(uint64(len(payload)))
	buf.Write(payload)
	digest := sha256.Sum256(buf.Bytes())
	buf.Write(digest[:])
	return buf.Bytes()
}

// Marshal encodes c into a complete checkpoint container.
func Marshal(c Checkpointer) ([]byte, error) {
	enc := NewEncoder()
	c.EncodeCheckpoint(enc)
	phase, episode := c.CheckpointProgress()
	meta := Meta{
		Version:     Version,
		Kind:        c.CheckpointKind(),
		Fingerprint: c.CheckpointFingerprint(),
		Phase:       phase,
		Episode:     episode,
	}
	return Seal(meta, enc.Bytes()), nil
}

// open runs Unmarshal's container checks, in contract order — magic,
// version, size, digest — and returns the validated meta and the payload
// bytes.
func open(data []byte) (Meta, []byte, error) {
	r := NewDecoder(data)
	magic := r.take(len(Magic))
	if magic == nil {
		return Meta{}, nil, fmt.Errorf("%w: %d bytes is shorter than the magic", ErrTruncated, len(data))
	}
	if string(magic) != Magic {
		return Meta{}, nil, fmt.Errorf("%w: got %q", ErrBadMagic, string(magic))
	}
	var meta Meta
	meta.Version = r.U32()
	if r.Err() == nil && meta.Version != Version {
		return Meta{}, nil, fmt.Errorf("%w: file has version %d, this build reads version %d", ErrVersion, meta.Version, Version)
	}
	meta.Kind = r.String()
	meta.Fingerprint = r.U64()
	meta.Phase = int(r.U32())
	meta.Episode = int(r.U64())
	n := r.U64()
	if r.Err() != nil {
		return Meta{}, nil, fmt.Errorf("%w: header incomplete: %v", ErrTruncated, r.Err())
	}
	if n > uint64(r.Remaining()) {
		return Meta{}, nil, fmt.Errorf("%w: header claims %d payload bytes, %d remain", ErrTruncated, n, r.Remaining())
	}
	start := len(data) - r.Remaining()
	end := start + int(n)
	if len(data) != end+sha256.Size {
		return Meta{}, nil, fmt.Errorf("%w: file is %d bytes, container describes %d", ErrTruncated, len(data), end+sha256.Size)
	}
	if !sealed(data) {
		return Meta{}, nil, fmt.Errorf("%w: stored digest %x does not match the content", ErrDigest, data[end:end+8])
	}
	return meta, data[start:end], nil
}

// sealed reports whether data ends in the SHA-256 digest of every byte
// before it, as Seal writes it.
func sealed(data []byte) bool {
	if len(data) < sha256.Size {
		return false
	}
	end := len(data) - sha256.Size
	digest := sha256.Sum256(data[:end])
	return bytes.Equal(digest[:], data[end:])
}

// Unmarshal validates a container and, if every check passes, hands the
// payload to c.DecodeCheckpoint. Validation order — magic, version,
// size, digest, kind, fingerprint — is part of the contract: a file must
// be structurally sound before it is compared against the learner, and no
// payload byte reaches the learner decoder before the digest has proven
// the payload is exactly what was written.
func Unmarshal(data []byte, c Checkpointer) (Meta, error) {
	meta, payload, err := open(data)
	if err != nil {
		return Meta{}, err
	}
	if meta.Kind != c.CheckpointKind() {
		return Meta{}, fmt.Errorf("%w: file holds %q state, learner is %q", ErrKind, meta.Kind, c.CheckpointKind())
	}
	if meta.Fingerprint != c.CheckpointFingerprint() {
		return Meta{}, fmt.Errorf("%w: file %016x, learner %016x (hyperparameters differ)", ErrFingerprint, meta.Fingerprint, c.CheckpointFingerprint())
	}
	dec := NewDecoder(payload)
	if err := c.DecodeCheckpoint(dec); err != nil {
		return Meta{}, fmt.Errorf("%w: %v", ErrPayload, err)
	}
	if dec.Remaining() != 0 {
		return Meta{}, fmt.Errorf("%w: %d trailing payload bytes", ErrPayload, dec.Remaining())
	}
	return meta, nil
}

// WriteFile atomically writes c's checkpoint to path: the bytes land in a
// temp file in the same directory, are fsynced, and replace path via rename.
// A crash at any point leaves either the old file or the new file, never a
// torn mix.
func WriteFile(path string, c Checkpointer) error {
	data, err := Marshal(c)
	if err != nil {
		return err
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".ckpt-*.tmp")
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	tmpName := tmp.Name()
	defer os.Remove(tmpName) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return fmt.Errorf("checkpoint: write %s: %w", tmpName, err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("checkpoint: fsync %s: %w", tmpName, err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("checkpoint: close %s: %w", tmpName, err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		return fmt.Errorf("checkpoint: rename into place: %w", err)
	}
	// Persist the rename itself. Some platforms do not support fsync on
	// directories; the rename is still atomic there, so this is best-effort.
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		_ = d.Close()
	}
	return nil
}

// ReadFile loads the checkpoint at path into c.
func ReadFile(path string, c Checkpointer) (Meta, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Meta{}, fmt.Errorf("checkpoint: %w", err)
	}
	meta, err := Unmarshal(data, c)
	if err != nil {
		return Meta{}, fmt.Errorf("%s: %w", path, err)
	}
	return meta, nil
}

// FileName returns the canonical checkpoint file name for a training
// position. Phase sorts before episode, so lexical order equals training
// order (pretrain checkpoints precede fine-tune checkpoints).
func FileName(phase, episode int) string {
	return fmt.Sprintf("ckpt-%d-%08d.fmck", phase, episode)
}

// checkpointFiles lists the checkpoint files in dir in lexical (= training)
// order.
func checkpointFiles(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	var names []string
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if strings.HasPrefix(e.Name(), "ckpt-") && strings.HasSuffix(e.Name(), ".fmck") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names, nil
}

// Latest returns the path and meta of the newest valid checkpoint in dir.
// Corrupt files are skipped (a crash mid-retention or a torn disk cannot
// brick resume as long as one older checkpoint survives); if the directory
// holds no valid checkpoint the error wraps ErrNoCheckpoint. An intact file
// of another format version is not corruption: met before any valid file,
// it stops the search with an error that wraps ErrVersion and names it, so
// a resume never retrains from scratch over checkpoints this build cannot
// read.
func Latest(dir string) (string, Meta, error) {
	names, err := checkpointFiles(dir)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			// A directory that was never created is just "nothing saved yet",
			// so `-resume` on a fresh run starts cleanly.
			return "", Meta{}, fmt.Errorf("%w in %s", ErrNoCheckpoint, dir)
		}
		return "", Meta{}, err
	}
	for i := len(names) - 1; i >= 0; i-- {
		path := filepath.Join(dir, names[i])
		data, err := os.ReadFile(path)
		if err != nil {
			continue
		}
		meta, _, err := open(data)
		switch {
		case err == nil:
			return path, meta, nil
		case errors.Is(err, ErrVersion) && sealed(data):
			return "", Meta{}, fmt.Errorf("%s: %w", path, err)
		}
	}
	return "", Meta{}, fmt.Errorf("%w in %s", ErrNoCheckpoint, dir)
}

// Prune deletes all but the newest keep checkpoint files in dir.
func Prune(dir string, keep int) error {
	if keep <= 0 {
		keep = DefaultKeep
	}
	names, err := checkpointFiles(dir)
	if err != nil {
		return err
	}
	for _, name := range names[:max(0, len(names)-keep)] {
		if err := os.Remove(filepath.Join(dir, name)); err != nil {
			return fmt.Errorf("checkpoint: prune: %w", err)
		}
	}
	return nil
}

// SaveDir writes c's checkpoint into dir under its canonical name (creating
// dir if needed), applies retention, and returns the written path.
func SaveDir(dir string, c Checkpointer, keep int) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("checkpoint: %w", err)
	}
	phase, episode := c.CheckpointProgress()
	path := filepath.Join(dir, FileName(phase, episode))
	if err := WriteFile(path, c); err != nil {
		return "", err
	}
	if err := Prune(dir, keep); err != nil {
		return "", err
	}
	return path, nil
}

// Package plfs implements the Parallel Log-structured File System — the
// paper's transformative I/O middleware.
//
// PLFS preserves an application's logical view of a shared file while
// physically decoupling it: the logical file becomes a *container*
// directory on an underlying parallel file system; each writing process
// appends its data to a private *data dropping* and records where each
// write logically belongs in a private *index dropping*.  N-1 workloads
// (N processes, one file) become N-N on the backing store, eliminating
// write serialization; the deferred work of resolving logical offsets is
// paid when the file is opened for reading.
//
// This package contains everything the paper describes:
//
//   - the container structure (access file, metadir, openhosts, hostdir
//     subdirs holding data/index droppings) — §II, Fig. 1;
//   - timestamp-resolved index aggregation into a global offset map;
//   - the three read-open strategies — Original (uncoordinated N² opens),
//     Index Flatten (aggregate at write close), and Parallel Index Read
//     (two-level group/leader aggregation at read open) — §IV, Fig. 3;
//   - federated metadata: static hashing of containers and of subdirs
//     across multiple metadata volumes — §V, Fig. 6.
//
// PLFS is written against the small Backend/Clock/Sleeper interfaces below
// and the comm.Comm collectives, so the identical middleware runs over any
// store that implements them.  Three stores exist today: a real directory
// tree with goroutine writers (internal/osfs + internal/localcomm), the
// simulated POSIX cluster (internal/simfs + internal/mpi) where the
// paper's performance claims are reproduced, and a simulated flat object
// store (internal/objfs) where droppings become objects and commits become
// conditional PUTs.  Anything layered between PLFS and a store — fault
// injection (internal/fault), this package's health tracking — is an
// interceptor on the single forwarding decorator in interpose.go, never a
// Backend implementation of its own.  DESIGN.md §16 is the authoritative
// guide for writing a fourth store; internal/plfs/backendtest is its
// executable form.
package plfs

import (
	"time"

	"plfs/internal/extent"
	"plfs/internal/payload"
)

// Backend is the slice of an underlying storage system PLFS needs.  The
// full contract an implementation must honor — error sentinels, atomicity,
// concurrency, and the optional capabilities below — is documented in
// DESIGN.md §16 and asserted executably by internal/plfs/backendtest.
//
// Error sentinels (checked with errors.Is, so wrapping is fine):
//
//   - Mkdir and Create on a taken name fail with io/fs.ErrExist — the
//     container protocol's open races resolve on that verdict.
//   - OpenRead, OpenWrite, Stat, ReadDir, and Remove of a missing name
//     fail with io/fs.ErrNotExist.
//   - Rename onto an existing target either replaces it atomically
//     (os.Rename) or fails with io/fs.ErrExist leaving both names intact
//     (the simulated stores); callers must tolerate both, and the commit
//     protocol does — it treats ErrExist-without-replace as "already
//     published".
//
// A Backend value and its Files are private to one process/goroutine
// unless the implementation also satisfies ConcurrentIO, in which case
// the reader may fan I/O calls out across its worker pool.  Transient
// failures should implement `Transient() bool` so Retryable can tell
// them from permanent namespace verdicts.
type Backend interface {
	// Mkdir creates a directory.  Parent-existence requirements are
	// backend-specific (a flat object store has no parents); PLFS always
	// creates ancestors first, so portable callers should too.
	Mkdir(path string) error
	// Create creates a file exclusively (O_EXCL): ErrExist if taken.
	Create(path string) (File, error)
	// OpenRead opens an existing file read-only.
	OpenRead(path string) (File, error)
	// OpenWrite opens an existing file for writing without truncation.
	OpenWrite(path string) (File, error)
	// Stat describes a name (file size; directory flag).
	Stat(path string) (Info, error)
	// ReadDir returns the directory's entries sorted by Name (ascending,
	// byte order) — dropping discovery depends on the ordering.
	ReadDir(path string) ([]Info, error)
	// Remove deletes a file or an empty directory.
	Remove(path string) error
	// Rename moves oldPath to newPath (see the contract above for the
	// existing-target cases).
	Rename(oldPath, newPath string) error
}

// File is an open backend file.  Offsets never carry a cursor: every
// method is positional, and reads past the written size return zeros for
// the overhang (PLFS bounds reads by the logical size it tracks itself).
// List I/O and batched append are part of the base request set, not
// probed extras (Ching et al., "Noncontiguous I/O through PVFS"): every
// store has them, so no caller carries a per-extent fallback loop.
//
// Two rules let a store make a write one syscall or less (DESIGN.md §16.1):
// bytes handed to a write are immutable until the call returns, so the
// store may write from them without copying; and a path has one appending
// handle at a time, so the store may compute Append's offset from the
// handle's own history — and may hold appended bytes back (Flusher): the
// handle itself sees them at once, other handles and Stat/ReadDir once it
// is flushed or closed.
type File interface {
	// WriteAt writes p at the given offset.
	WriteAt(off int64, p payload.Payload) error
	// Append writes p at end-of-file and returns the offset it landed at.
	// The returned offset is load-bearing: index records point at it.
	Append(p payload.Payload) (int64, error)
	// ReadAt returns the byte range [off, off+n), zero-filled past EOF.
	ReadAt(off, n int64) (payload.List, error)
	// Size returns the current file size.
	Size() int64
	// Close releases the file.
	Close() error
	VectoredIO
	BatchAppender
}

// CondPutter is an optional Backend capability: conditional whole-object
// publication, the native commit primitive of object stores.  When a
// backend advertises it, the commit protocol (writeFileAtomic) skips the
// create-temp/append/rename dance entirely and publishes with one call —
// index replication and background repair inherit the switch for free.
//
//   - PutIfAbsent atomically creates path with data; if the key is
//     already taken it fails with io/fs.ErrExist and writes nothing.
//     No reader may ever observe a partial object.
//   - PutReplace atomically replaces path with data (creating it if
//     absent).  Implementations typically condition on a generation
//     read immediately beforehand; losing a race fails with a transient
//     error (Transient() == true) and writes nothing, and the caller
//     retries.
//
// Optional capabilities are properties of the store: ask with
// CondPutterOf(b), which consults the leaf under any interposers, never
// with a bare type assertion on b.
type CondPutter interface {
	PutIfAbsent(path string, data []byte) error
	PutReplace(path string, data []byte) error
}

// BulkOp is one entry in a bulk-create batch: a file or directory to be
// created at Path.  Entries apply in order, so a directory created early
// in a batch can parent files created later in the same batch.
type BulkOp struct {
	Path string
	Dir  bool
}

// BulkCreator is an optional Backend capability: many namespace creates
// shipped to the metadata service as one RPC whose cost amortizes the
// per-operation serialization (Li/Latham's bulk object creation).  It
// returns one error slot per entry — io/fs.ErrExist for taken names
// (the entry is left untouched), io/fs.ErrNotExist for missing parents —
// and created files are not opened; callers pair it with OpenWrite.
// Entries should be grouped by parent directory (directories before the
// files under them) so the server coalesces per-directory locking.
//
// Ask with BulkCreatorOf(b) (see CondPutter).  The fault interceptor
// gates each entry individually, so a crash point mid-batch applies a
// prefix — the server-side bulk commit a real MDS performs.
type BulkCreator interface {
	CreateBulk(ops []BulkOp) []error
}

// VectoredIO is the list-I/O part of File: many (offset, length) extents
// shipped as one backend request.  data carries the bytes concatenated
// in segment order (piece boundaries need not align with segments);
// ReadvAt returns the extents' bytes concatenated the same way.
type VectoredIO interface {
	WritevAt(segs []extent.Ext, data payload.List) error
	ReadvAt(segs []extent.Ext) (payload.List, error)
}

// BatchAppender is the batched-append part of File: many payload pieces
// landed contiguously at end-of-file in one backend operation, returning
// the offset of the first.  PLFS data droppings use it to land a
// vectored write's K extents with a single append.
type BatchAppender interface {
	Appendv(pl payload.List) (int64, error)
}

// RangeLocker is an optional File capability: an advisory write lock for
// read-modify-write windows (the fcntl byte-range lock of ROMIO's data
// sieving contract).  Implementations may be conservative — whole-file —
// but must provide real mutual exclusion among the backend's writers.
// The lock guards middleware RMW windows, not stored bytes, so it is
// asked of and taken on LeafFile(f) directly, past any interceptor.
type RangeLocker interface {
	LockRange(off, n int64) error
	UnlockRange(off, n int64) error
}

// Flusher is an optional File capability of a store that buffers appends
// (DESIGN.md §16.1): Flush hands every append the handle has accepted to
// the store, and returns the write error a buffered append could not.
// Stores that land every append before returning do not implement it.
// Like RangeLocker it concerns only the store, so it is asked of
// LeafFile(f).
type Flusher interface {
	Flush() error
}

// Info describes a backend namespace entry.
type Info struct {
	Name string
	Dir  bool
	Size int64
}

// Clock provides timestamps for index records.  PLFS resolves writes to
// the same logical offset by timestamp (the paper assumes synchronized
// cluster clocks; ties are broken deterministically by rank).
type Clock interface {
	Now() int64 // nanoseconds
}

// ClockFunc adapts a function to a Clock.
type ClockFunc func() int64

// Now implements Clock.
func (f ClockFunc) Now() int64 { return f() }

// Sleeper charges CPU time for index parsing/merging.  The simulator binds
// this to the calling process so large index merges cost simulated time; a
// real deployment uses NopSleeper (the CPU time is spent for real).
type Sleeper interface {
	Sleep(d time.Duration)
}

// NopSleeper ignores sleep requests.
type NopSleeper struct{}

// Sleep implements Sleeper.
func (NopSleeper) Sleep(time.Duration) {}

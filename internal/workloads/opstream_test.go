package workloads_test

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"plfs/internal/adio"
	"plfs/internal/comm"
	"plfs/internal/payload"
	"plfs/internal/plfs"
	"plfs/internal/workloads"
)

var update = flag.Bool("update", false, "rewrite the op-stream golden files")

// TestKernelOpStreams pins, for every kernel of the table on both
// drivers, the exact calls each rank issues below the kernel: driver
// opens (path, mode, serial or collective), every file call with its
// offsets and lengths, every barrier and collective on the rank's
// communicator (the middleware's own included), cache drops, Env.Step
// calls, and the final Result.  Payload content is not recorded.  Any
// change to a kernel that moves a call, a barrier or a virtual time
// shows up as a diff; regenerate with
// `go test ./internal/workloads -run TestKernelOpStreams -update`.
func TestKernelOpStreams(t *testing.T) {
	const ranks = 4
	for _, c := range kernelTable(ranks) {
		c := c
		t.Run(c.name(), func(t *testing.T) {
			var buf bytes.Buffer
			for _, drv := range []string{"plfs", "ufs"} {
				log := &opLog{ranks: make([][]string, ranks)}
				if _, errs := runRecorded(t, c.k, ranks, drv, c.hints, true, log); errors.Join(errs...) != nil {
					t.Fatalf("%s: %v", drv, errors.Join(errs...))
				}
				fmt.Fprintf(&buf, "== %s\n", drv)
				for r, lines := range log.ranks {
					for _, l := range lines {
						fmt.Fprintf(&buf, "r%d %s\n", r, l)
					}
				}
			}
			golden := filepath.Join("testdata", "ops", c.name()+".txt")
			if *update {
				if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("%v (regenerate with -update)", err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				got, wantL := bytes.Split(buf.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
				for i := 0; i < len(got) && i < len(wantL); i++ {
					if !bytes.Equal(got[i], wantL[i]) {
						t.Fatalf("%s line %d:\n got  %s\n want %s", golden, i+1, got[i], wantL[i])
					}
				}
				t.Fatalf("%s: %d lines, want %d", golden, len(got), len(wantL))
			}
		})
	}
}

// opLog is one run's recorded calls, per rank in program order.
type opLog struct{ ranks [][]string }

func (l *opLog) add(rank int, format string, args ...any) {
	l.ranks[rank] = append(l.ranks[rank], fmt.Sprintf(format, args...))
}

func (l *opLog) errorf(rank int, err error) {
	if err != nil {
		l.add(rank, "  -> %v", err)
	}
}

// attach wraps env's driver and communicator in recorders and sets its
// cache-drop and step hooks; rank 0's drop runs drop.
func (l *opLog) attach(env *workloads.Env, rank int, drop func()) {
	env.Ctx.Comm = recComm{Comm: env.Ctx.Comm, log: l, rank: rank}
	env.Driver = recDriver{Driver: env.Driver, log: l, rank: rank}
	env.InvalidateCaches = func() {
		l.add(rank, "invalidate")
		if rank == 0 {
			drop()
		}
	}
	env.Step = func(step int, res workloads.Result) {
		l.add(rank, "step %d %s", step, fmtResult(res))
	}
}

func (l *opLog) result(rank int, res workloads.Result, err error) {
	l.add(rank, "result %s", fmtResult(res))
	l.errorf(rank, err)
}

func fmtResult(r workloads.Result) string {
	return fmt.Sprintf("wopen=%d write=%d wclose=%d ropen=%d read=%d rclose=%d bytes=%d",
		r.WriteOpen, r.Write, r.WriteClose, r.ReadOpen, r.Read, r.ReadClose, r.BytesPerRank)
}

type recDriver struct {
	adio.Driver
	log  *opLog
	rank int
}

func (d recDriver) Open(ctx plfs.Ctx, path string, mode adio.Mode, h adio.Hints) (adio.File, error) {
	d.log.add(d.rank, "open %s mode=%d serial=%v", path, mode, ctx.Comm == nil)
	f, err := d.Driver.Open(ctx, path, mode, h)
	d.log.errorf(d.rank, err)
	if err != nil {
		return nil, err
	}
	return &recFile{File: f, log: d.log, rank: d.rank, path: path}, nil
}

type recFile struct {
	adio.File
	log  *opLog
	rank int
	path string
}

func (f *recFile) rec(format string, args ...any) {
	f.log.add(f.rank, "%s %s", f.path, fmt.Sprintf(format, args...))
}

func (f *recFile) WriteAt(off int64, p payload.Payload) error {
	f.rec("WriteAt %d %d", off, p.Len())
	err := f.File.WriteAt(off, p)
	f.log.errorf(f.rank, err)
	return err
}

func (f *recFile) ReadAt(off, n int64) (payload.List, error) {
	f.rec("ReadAt %d %d", off, n)
	got, err := f.File.ReadAt(off, n)
	f.log.errorf(f.rank, err)
	return got, err
}

func (f *recFile) WriteAtv(segs []adio.Seg, data payload.List) error {
	f.rec("WriteAtv %v pieces=%d", segs, len(data))
	err := f.File.WriteAtv(segs, data)
	f.log.errorf(f.rank, err)
	return err
}

func (f *recFile) ReadAtv(segs []adio.Seg) (payload.List, error) {
	f.rec("ReadAtv %v", segs)
	got, err := f.File.ReadAtv(segs)
	f.log.errorf(f.rank, err)
	return got, err
}

func (f *recFile) WriteAtAll(off int64, p payload.Payload) error {
	f.rec("WriteAtAll %d %d", off, p.Len())
	err := f.File.WriteAtAll(off, p)
	f.log.errorf(f.rank, err)
	return err
}

func (f *recFile) ReadAtAll(off, n int64) (payload.List, error) {
	f.rec("ReadAtAll %d %d", off, n)
	got, err := f.File.ReadAtAll(off, n)
	f.log.errorf(f.rank, err)
	return got, err
}

func (f *recFile) WriteAll(base int64, dt *adio.Datatype, data payload.List) error {
	f.rec("WriteAll %v pieces=%d", dt.Segs(base), len(data))
	err := f.File.WriteAll(base, dt, data)
	f.log.errorf(f.rank, err)
	return err
}

func (f *recFile) ReadAll(base int64, dt *adio.Datatype) (payload.List, error) {
	f.rec("ReadAll %v", dt.Segs(base))
	got, err := f.File.ReadAll(base, dt)
	f.log.errorf(f.rank, err)
	return got, err
}

func (f *recFile) Size() int64 {
	f.rec("Size")
	return f.File.Size()
}

func (f *recFile) Close() error {
	f.rec("close")
	err := f.File.Close()
	f.log.errorf(f.rank, err)
	return err
}

// recComm records the collectives a rank enters, with the sizes the
// cost model charges; values are not recorded.
type recComm struct {
	comm.Comm
	log  *opLog
	rank int
}

func (c recComm) Barrier() {
	c.log.add(c.rank, "barrier")
	c.Comm.Barrier()
}

func (c recComm) Bcast(root int, nbytes int64, v any) any {
	c.log.add(c.rank, "bcast root=%d n=%d", root, nbytes)
	return c.Comm.Bcast(root, nbytes, v)
}

func (c recComm) Gather(root int, nbytes int64, v any) []any {
	c.log.add(c.rank, "gather root=%d n=%d", root, nbytes)
	return c.Comm.Gather(root, nbytes, v)
}

func (c recComm) Scatter(root int, nbytesEach int64, vs []any) any {
	c.log.add(c.rank, "scatter root=%d n=%d", root, nbytesEach)
	return c.Comm.Scatter(root, nbytesEach, vs)
}

func (c recComm) Allgather(nbytes int64, v any) []any {
	c.log.add(c.rank, "allgather n=%d", nbytes)
	return c.Comm.Allgather(nbytes, v)
}

func (c recComm) Alltoall(nbytes []int64, vs []any) []any {
	c.log.add(c.rank, "alltoall n=%v", nbytes)
	return c.Comm.Alltoall(nbytes, vs)
}

func (c recComm) Split(color, key int) comm.Comm {
	c.log.add(c.rank, "split color=%d key=%d", color, key)
	return recComm{Comm: c.Comm.Split(color, key), log: c.log, rank: c.rank}
}

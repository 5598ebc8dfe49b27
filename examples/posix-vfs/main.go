// POSIX interposition: the FUSE-style path, end to end, on a real
// directory — plus the administrative tooling.
//
// A mini-HDF file is written through the VFS mount (transparently
// transformed into a PLFS container), then statted, scrubbed, flattened,
// renamed, and read back through plain POSIX-style calls.
//
// Run:
//
//	go run ./examples/posix-vfs
package main

import (
	"fmt"
	"log"
	"os"

	"plfs/internal/osfs"
	"plfs/internal/payload"
	"plfs/internal/plfs"
	"plfs/internal/vfs"
)

func main() {
	root, err := os.MkdirTemp("", "plfs-vfs-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(root)

	mount := plfs.NewMount([]string{root}, plfs.Options{NumSubdirs: 2})
	ctx := plfs.Ctx{Vols: []plfs.Backend{osfs.New()}, HostLeader: true}
	v := vfs.New(ctx)
	v.MountPLFS("/ckpt", mount)

	// --- Write through the POSIX surface. ---
	fd, err := v.Open("/ckpt/dump.0001", vfs.OWronly|vfs.OCreate)
	if err != nil {
		log.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := v.Write(fd, payload.FromBytes([]byte(fmt.Sprintf("record-%03d|", i)))); err != nil {
			log.Fatal(err)
		}
	}
	// A backfill at an earlier offset — PLFS logs it, the index resolves it.
	if err := v.Pwrite(fd, 0, payload.FromBytes([]byte("RECORD"))); err != nil {
		log.Fatal(err)
	}
	if err := v.Close(fd); err != nil {
		log.Fatal(err)
	}

	fi, err := v.Stat("/ckpt/dump.0001")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("stat: %s is a logical file of %d bytes (really a container)\n", fi.Name, fi.Size)

	// --- Administrative tooling on the same container. ---
	rep, err := mount.Scrub(ctx, "dump.0001")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("scrub:", rep)
	if !rep.OK() {
		log.Fatal("scrub found problems in a freshly written container")
	}

	if err := mount.Flatten(ctx, "dump.0001"); err != nil {
		log.Fatal(err)
	}
	fmt.Println("flattened: reads now use a single global index")

	if err := v.Rename("/ckpt/dump.0001", "/ckpt/dump.final"); err != nil {
		log.Fatal(err)
	}

	// --- Read back via sequential POSIX reads. ---
	rd, err := v.Open("/ckpt/dump.final", vfs.ORdonly)
	if err != nil {
		log.Fatal(err)
	}
	defer v.Close(rd)
	var all []byte
	for {
		pl, err := v.Read(rd, 13)
		if err != nil {
			log.Fatal(err)
		}
		if pl.Len() == 0 {
			break
		}
		all = append(all, pl.Materialize()...)
	}
	fmt.Printf("read back: %q\n", all)
	if string(all[:6]) != "RECORD" {
		log.Fatal("backfilled bytes did not win")
	}
	fmt.Println("the later Pwrite overwrote the log-structured earlier bytes, as POSIX demands")
}

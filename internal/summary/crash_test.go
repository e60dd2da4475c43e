package summary

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"testing"
)

// Crash-point battery. These tests stop the disk tier of a write-through
// stack at every point of a batch of Puts, as a process killed there
// would, drop the stack, reopen the directory, and assert the invariant
// the write-through contract provides: every put the store acknowledged
// before the crash is recovered bit-identically, no matter where the
// crash fell. TestDurableCacheSIGKILL checks the same with a real
// SIGKILL of a child process.

// dyingDisk is a disk tier that dies after left more writes: every Put
// after that leaves a torn temp file, as a process killed mid-write
// leaves it, and fails.
type dyingDisk struct {
	*DiskStore
	left int
}

func (d *dyingDisk) Put(k Key, v []byte) error {
	if d.left == 0 {
		if f, err := os.CreateTemp(d.Dir(), "put-*"); err == nil {
			f.Write(v[:min(13, len(v))])
			f.Close()
		}
		return errors.New("disk died mid-write")
	}
	d.left--
	return d.DiskStore.Put(k, v)
}

func crashKey(i int) Key { return KeyOf("crash", fmt.Sprint(i)) }

func crashVal(i int) []byte {
	return []byte(fmt.Sprintf("summary-payload-%d-%s", i, string(make([]byte, i%7))))
}

// crashRun puts batch records through memory in front of a disk tier
// that dies after n writes, and returns the indices whose Put was
// acknowledged.
func crashRun(t *testing.T, dir string, batch, n int) []int {
	t.Helper()
	disk, err := NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	store := NewTieredStore(NewMemStore(0), &dyingDisk{DiskStore: disk, left: n})
	var acked []int
	for i := 0; i < batch; i++ {
		if err := store.Put(crashKey(i), crashVal(i)); err == nil {
			acked = append(acked, i)
		}
	}
	return acked
}

// TestCrashAtEveryPoint kills the disk tier after n writes for every n
// in a batch of puts, reopens the directory, and checks the
// acknowledged prefix is recovered exactly.
func TestCrashAtEveryPoint(t *testing.T) {
	const batch = 6
	for n := 0; n <= batch; n++ {
		t.Run(fmt.Sprintf("crash-after-%d", n), func(t *testing.T) {
			dir := t.TempDir()
			acked := crashRun(t, dir, batch, n)
			if len(acked) != n {
				t.Fatalf("acknowledged %d puts, want the %d the disk took before the crash", len(acked), n)
			}
			for j, i := range acked {
				if i != j {
					t.Fatalf("acknowledged put %d after the crash", i)
				}
			}
			// The process dies here: the memory tier is gone. All that
			// survives is the directory.

			fresh, err := NewDiskStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < n; i++ {
				got, ok := fresh.Get(crashKey(i))
				if !ok {
					t.Fatalf("acknowledged put %d lost", i)
				}
				if !bytes.Equal(got, crashVal(i)) {
					t.Fatalf("acknowledged put %d corrupted: got %q want %q", i, got, crashVal(i))
				}
			}
			for i := n; i < batch; i++ {
				if _, ok := fresh.Get(crashKey(i)); ok {
					t.Fatalf("unacknowledged put %d resurrected from a torn write", i)
				}
			}
		})
	}
}

// TestCrashRecoveryMatchesCrashFreeRun runs the same batch twice — once
// crash-free, once with a kill mid-batch — and checks the reopened
// directory serves the identical bytes for every key the crashed run
// acknowledged. Once the next run has re-put the keys it misses, as it
// would after recomputing them, both directories hold the same blobs.
func TestCrashRecoveryMatchesCrashFreeRun(t *testing.T) {
	const batch = 10

	refDir := t.TempDir()
	if acked := crashRun(t, refDir, batch, batch); len(acked) != batch {
		t.Fatalf("crash-free run acknowledged %d puts, want %d", len(acked), batch)
	}
	ref, err := NewDiskStore(refDir)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	acked := crashRun(t, dir, batch, batch/2)
	if len(acked) != batch/2 {
		t.Fatalf("crashed run acknowledged %d puts, want %d", len(acked), batch/2)
	}
	recovered, err := NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range acked {
		want, _ := ref.Get(crashKey(i))
		got, ok := recovered.Get(crashKey(i))
		if !ok || !bytes.Equal(got, want) {
			t.Fatalf("key %d: recovered store diverges from crash-free run (ok=%v)", i, ok)
		}
	}

	next := NewTieredStore(NewMemStore(0), recovered)
	for i := 0; i < batch; i++ {
		if _, ok := next.Get(crashKey(i)); ok {
			continue
		}
		if err := next.Put(crashKey(i), crashVal(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < batch; i++ {
		want, _ := ref.Get(crashKey(i))
		got, ok := recovered.Get(crashKey(i))
		if !ok || !bytes.Equal(got, want) {
			t.Fatalf("key %d: directory after the next run diverges from crash-free run (ok=%v)", i, ok)
		}
	}
}

// Package leakcheck is test support: it asserts that a test, or one part of
// it, leaves no goroutine and no open file descriptor behind. Closing a
// fleet must end its watchers, its workers' sessions and its listeners;
// closing a server must end its collector; a worker that drops a hostile
// session must close its connection.
package leakcheck

import (
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"
)

// settle bounds how long Settle polls: a closed connection's goroutines and
// descriptors go away asynchronously.
const settle = 5 * time.Second

// Snapshot is the process's goroutine and open-descriptor counts at one
// moment. fds is -1 where /proc/self/fd is absent, and the descriptor half
// of every check is then skipped.
type Snapshot struct {
	goroutines, fds int
}

// Take records the counts now.
func Take() Snapshot {
	return Snapshot{runtime.NumGoroutine(), openFDs()}
}

func openFDs() int {
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return -1
	}
	return len(ents)
}

// Settle polls until both counts are back at or below s's, and otherwise
// returns an error naming the excess, with every goroutine's stack.
func (s Snapshot) Settle() error {
	deadline := time.Now().Add(settle)
	for {
		now := Take()
		if now.goroutines <= s.goroutines && (s.fds < 0 || now.fds <= s.fds) {
			return nil
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			return fmt.Errorf("%d goroutines and %d fds outlive the check (%d and %d before it):\n%s",
				now.goroutines-s.goroutines, now.fds-s.fds, s.goroutines, s.fds, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// Check fails t unless, once the test and every cleanup registered after this
// call have run, the counts settle back to what they are here. Call it first,
// so that its cleanup runs last.
func Check(t testing.TB) {
	t.Helper()
	s := Take()
	t.Cleanup(func() {
		if err := s.Settle(); err != nil {
			t.Error(err)
		}
	})
}

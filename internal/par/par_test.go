package par

import (
	"errors"
	"sync/atomic"
	"testing"
)

func TestForRunsEveryJob(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 16} {
		var hits [40]int32
		err := For(workers, len(hits), func(i int) error {
			atomic.AddInt32(&hits[i], 1)
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: job %d ran %d times", workers, i, h)
			}
		}
	}
}

func TestForReturnsLowestIndexError(t *testing.T) {
	errA, errB := errors.New("a"), errors.New("b")
	err := For(4, 20, func(i int) error {
		switch i {
		case 3:
			return errA
		case 17:
			return errB
		}
		return nil
	})
	if !errors.Is(err, errA) {
		t.Fatalf("got %v, want the lowest-index error", err)
	}
}

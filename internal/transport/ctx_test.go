package transport

import (
	"context"
	"errors"
	"testing"
	"time"
)

// TestNewTCPWorkerCancelWhileWaiting: a per-process endpoint waiting
// for peers that never come up must abort on cancellation well before its
// dial timeout.
func TestNewTCPWorkerCancelWhileWaiting(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		// Worker 1 of 2: it must accept a connection from worker 0,
		// which never arrives.
		_, err := NewTCPWorker(ctx, 1, []string{"127.0.0.1:1", "127.0.0.1:0"}, nil, time.Minute, 1)
		done <- err
	}()
	time.Sleep(50 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("NewTCPWorker ignored cancellation (would have waited out the full minute)")
	}
}

// TestNewTCPWorkerPreCanceled: a pre-canceled context fails the wiring
// at once.
func TestNewTCPWorkerPreCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	_, err := NewTCPWorker(ctx, 1, []string{"127.0.0.1:1", "127.0.0.1:0"}, nil, time.Minute, 1)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("pre-canceled construction took %v", elapsed)
	}
}

// TestNewTCPMeshDeploymentBackground: a live, never-canceled context
// builds a working mesh (sanity that the plumbing changed nothing).
func TestNewTCPMeshDeploymentBackground(t *testing.T) {
	mesh, err := NewTCPMeshDeployment(context.Background(), 3)
	if err != nil {
		t.Fatal(err)
	}
	defer mesh.Close()
	trs, err := mesh.OpenJob(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range trs {
		if tr.NumWorkers() != 3 {
			t.Fatalf("NumWorkers = %d, want 3", tr.NumWorkers())
		}
	}
}

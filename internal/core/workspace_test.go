package core

import (
	"context"
	"testing"

	"repro/internal/dataset"
	"repro/internal/sparse"
)

// The workspace kernels promise bitwise equality with the allocating
// kernels: same coefficients, same accumulation order, only the buffers'
// lifetimes differ. Reusing one workspace (and one dst) across many queries
// must not leak state between runs.
func TestSingleSourceWorkspaceKernelsBitwise(t *testing.T) {
	g := dataset.RMATDefault(7, 4, 41)
	qm := sparse.BackwardTransition(g)
	ctx := context.Background()
	ws := sparse.NewWorkspace(qm.R)
	dst := make([]float64, qm.R)
	// K <= 0 selects the default, so K = 0 is reachable only through Eps.
	zero := Options{C: 0.3, Eps: 1}
	if kg, ke := zero.geometric().k, zero.exponential().k; kg != 0 || ke != 0 {
		t.Fatalf("%+v resolves K = %d (geometric), %d (exponential); want 0", zero, kg, ke)
	}
	for _, opt := range []Options{{C: 0.6, K: 5}, {C: 0.8, K: 1}, zero, {C: 0.6, K: 4, Sieve: 1e-3}} {
		for q := 0; q < qm.R; q += 17 {
			want, err := SingleSourceGeometricFromTransition(ctx, qm, q, opt)
			if err != nil {
				t.Fatal(err)
			}
			if err := SingleSourceGeometricWS(ctx, qm, q, opt, ws, dst); err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if dst[i] != want[i] {
					t.Fatalf("geometric opt=%+v q=%d: [%d] = %g, want %g", opt, q, i, dst[i], want[i])
				}
			}
			want, err = SingleSourceExponentialFromTransition(ctx, qm, q, opt)
			if err != nil {
				t.Fatal(err)
			}
			if err := SingleSourceExponentialWS(ctx, qm, q, opt, ws, dst); err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if dst[i] != want[i] {
					t.Fatalf("exponential opt=%+v q=%d: [%d] = %g, want %g", opt, q, i, dst[i], want[i])
				}
			}
		}
	}
}

func TestSingleSourceWorkspaceCancellation(t *testing.T) {
	g := dataset.RMATDefault(6, 4, 42)
	qm := sparse.BackwardTransition(g)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	dst := make([]float64, qm.R)
	if err := SingleSourceGeometricWS(ctx, qm, 0, Options{}, nil, dst); err != context.Canceled {
		t.Fatalf("geometric: err = %v, want context.Canceled", err)
	}
	if err := SingleSourceExponentialWS(ctx, qm, 0, Options{}, nil, dst); err != context.Canceled {
		t.Fatalf("exponential: err = %v, want context.Canceled", err)
	}
}

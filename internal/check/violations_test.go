package check

import (
	"context"
	"reflect"
	"testing"

	"github.com/shelley-go/shelley/internal/interp"
	"github.com/shelley-go/shelley/internal/model"
)

func TestUsageViolationsEnumerates(t *testing.T) {
	reg, _, bad := paperRegistry(t)
	vs, err := UsageViolationsContext(context.Background(), bad, reg, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) == 0 {
		t.Fatal("BadSector has violations")
	}
	// The first (shortest) is the paper's counterexample, for valve a.
	if vs[0].Subsystem != "a" || !reflect.DeepEqual(vs[0].Trace, []string{"a.test", "a.open"}) {
		t.Errorf("first violation = %+v", vs[0])
	}
	// Each reported trace really violates at runtime.
	classes := map[string]*model.Class{"Valve": reg["Valve"], "BadSector": bad}
	for _, v := range vs {
		if err := interp.ReplayFlat(bad, classes, v.Trace); err == nil {
			t.Errorf("violation %v replayed cleanly", v.Trace)
		}
	}
	// Traces are distinct.
	seen := map[string]bool{}
	for _, v := range vs {
		k := v.Subsystem + "|" + labelSetKey(v.Trace)
		if seen[k] {
			t.Errorf("duplicate violation %+v", v)
		}
		seen[k] = true
	}
}

func TestUsageViolationsRespectsMax(t *testing.T) {
	reg, _, bad := paperRegistry(t)
	one, err := UsageViolationsContext(context.Background(), bad, reg, 1)
	if err != nil {
		t.Fatal(err)
	}
	// max is per subsystem; only subsystem a has violations here.
	if len(one) != 1 {
		t.Errorf("violations = %d, want 1", len(one))
	}
	none, err := UsageViolationsContext(context.Background(), bad, reg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if none != nil {
		t.Errorf("max=0 should return nil")
	}
}

func TestUsageViolationsCleanClass(t *testing.T) {
	valve := classFrom(t, readTestdata(t, "valve.py"), "Valve")
	good := classFrom(t, readTestdata(t, "goodsector.py"), "GoodSector")
	reg := NewRegistry(valve, good)
	vs, err := UsageViolationsContext(context.Background(), good, reg, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 0 {
		t.Errorf("GoodSector should have no violations: %+v", vs)
	}
	// Base classes have no subsystems to violate.
	vs, err = UsageViolationsContext(context.Background(), valve, reg, 5)
	if err != nil {
		t.Fatal(err)
	}
	if vs != nil {
		t.Errorf("base class violations = %+v", vs)
	}
}

package hw

import (
	"reflect"
	"sync"
	"testing"
)

func TestPinLifecycle(t *testing.T) {
	b := NewBoard()
	p := b.Pin(27, Out)
	if p.id != 27 || p.mode != Out {
		t.Fatalf("pin = %d/%v", p.id, p.mode)
	}
	if p.Value() {
		t.Error("pins start low")
	}
	if err := p.On(); err != nil {
		t.Fatal(err)
	}
	if !p.Value() {
		t.Error("pin should be high after On")
	}
	if err := p.Off(); err != nil {
		t.Fatal(err)
	}
	if p.Value() {
		t.Error("pin should be low after Off")
	}
}

func TestPinIdentityAndReconfiguration(t *testing.T) {
	b := NewBoard()
	p1 := b.Pin(5, Out)
	p2 := b.Pin(5, In)
	if p1 != p2 {
		t.Error("same id must return the same pin")
	}
	if p1.mode != In {
		t.Error("re-acquiring reconfigures the mode")
	}
}

func TestInputPinsDrivenByEnvironmentOnly(t *testing.T) {
	b := NewBoard()
	p := b.Pin(29, In)
	if err := p.On(); err == nil {
		t.Error("driving an input pin must error")
	}
	b.SetInput(29, true)
	if !p.Value() {
		t.Error("SetInput should raise the pin")
	}
	b.SetInput(29, false)
	if p.Value() {
		t.Error("SetInput should lower the pin")
	}
}

func TestSetInputCreatesPin(t *testing.T) {
	b := NewBoard()
	b.SetInput(3, true)
	if !b.Pin(3, In).Value() {
		t.Error("SetInput on a fresh id should create and raise the pin")
	}
}

func TestSnapshotAndHighPins(t *testing.T) {
	b := NewBoard()
	b.Pin(1, Out)
	p2 := b.Pin(2, Out)
	b.SetInput(3, true)
	if err := p2.On(); err != nil {
		t.Fatal(err)
	}
	snap := b.Snapshot()
	want := map[int]bool{1: false, 2: true, 3: true}
	if !reflect.DeepEqual(snap, want) {
		t.Errorf("snapshot = %v, want %v", snap, want)
	}
	if got := b.HighPins(); !reflect.DeepEqual(got, []int{2, 3}) {
		t.Errorf("HighPins = %v", got)
	}
}

func TestModeString(t *testing.T) {
	if In.String() != "IN" || Out.String() != "OUT" {
		t.Error("mode names")
	}
	if Mode(9).String() == "" {
		t.Error("unknown mode should render")
	}
}

func TestBoardConcurrency(t *testing.T) {
	// Run with -race: concurrent drivers and readers must be safe.
	b := NewBoard()
	p := b.Pin(1, Out)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				if n%2 == 0 {
					_ = p.On()
					_ = p.Off()
				} else {
					_ = p.Value()
					b.SetInput(2, j%2 == 0)
					_ = b.HighPins()
				}
			}
		}(i)
	}
	wg.Wait()
}

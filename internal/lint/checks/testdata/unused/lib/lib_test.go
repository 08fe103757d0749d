package lib

import "testing"

// Test-only reachability does not make production code live.
func TestOnlyTests(t *testing.T) {
	if OnlyTests() != 1 || NewCircle(1).Area() != 3 || Harness() != 2 {
		t.Fatal("fixture")
	}
	var s Stack[int]
	s.Push(1)
	if s.Pop() != 1 || (&Square{side: 1}).Perimeter() != 4 {
		t.Fatal("fixture")
	}
}

package lib

import "testing"

func TestLib(t *testing.T) {
	if UsedOnlyInTests()+Harness()+countdown(2) != 9 {
		t.Fatal("unexpected sum")
	}
}

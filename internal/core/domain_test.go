package core

import "testing"

func TestDomainFor(t *testing.T) {
	if domainFor("sun4").IntBits != 32 {
		t.Fatal("sun4 should be 32-bit")
	}
	if domainFor("sp1").IntBits != 64 {
		t.Fatal("sp1 should be 64-bit")
	}
	if domainFor("i486-16").IntBits != 16 {
		t.Fatal("i486-16 should be 16-bit")
	}
	if domainFor("mystery").IntBits != 64 {
		t.Fatal("unknown arch should default to 64-bit")
	}
}

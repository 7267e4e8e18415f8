package kvcache

import "testing"

// BenchmarkAllocExtendFree measures the block-manager hot path: one
// request's lifecycle (alloc, 256 decode extends, free).
func BenchmarkAllocExtendFree(b *testing.B) {
	cfg := Config{BlockTokens: 16, BytesPerGroupToken: 20480, CapacityBytes: 8 << 30}
	m, err := NewManager(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.Alloc(0, RequestID(i), 8, 512); err != nil {
			b.Fatal(err)
		}
		for k := 0; k < 256; k++ {
			if err := m.Extend(0, 1); err != nil {
				b.Fatal(err)
			}
		}
		m.Free(0)
	}
}

// BenchmarkPlanMigration measures the Hauler's overlap-aware planning.
func BenchmarkPlanMigration(b *testing.B) {
	old := map[int]int{0: 12, 1: 4, 2: 0, 3: 8}
	new := map[int]int{0: 4, 1: 8, 2: 8, 3: 4}
	for i := 0; i < b.N; i++ {
		if _, err := PlanMigration(old, new, 1500, 20480); err != nil {
			b.Fatal(err)
		}
	}
}

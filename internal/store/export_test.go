package store

// SetMinerTraffic replaces the rows source m's sweeps read, so a test can
// hold a sweep inside its body. Call it before the first Submit.
func SetMinerTraffic(m *Miner, traffic func() ([]TrafficRow, error)) { m.traffic = traffic }

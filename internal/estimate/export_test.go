package estimate

// DelaysBuilt reports whether m holds its delay vector: whether Delays,
// or a sweep through it, has built it.
func DelaysBuilt(m *Module) bool { return m.delayState.Load() == delayBuilt }

package hrt

// UseTreeWalker makes s execute fragments on the tree-walking reference
// executor instead of the bytecode VM. Call before serving traffic; both
// address the same slot-based stores.
func (s *Server) UseTreeWalker() { s.treeWalk = true }

// RunSplitOn is RunSplitOpts against a server the test built.
var RunSplitOn = runSplitOn

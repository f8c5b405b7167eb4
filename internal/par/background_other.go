//go:build !linux

package par

// thread leaves a helper at the process's priority where a thread's own
// priority is not set here.
type thread struct{}

func spareThread() thread { return thread{} }

func (thread) busy()    {}
func (thread) idle()    {}
func (thread) release() {}

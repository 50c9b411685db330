"""lenscert: polynomial-size certificates that a 3-manifold is not a lens space."""
